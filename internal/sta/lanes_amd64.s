#include "textflag.h"

// The three passes of RunLightBatch for one block of four lanes. Lane d of
// gate g lives at byte offset g*w*8 + d*8 from the block's base, so one ymm
// register carries the whole block through a gate. Every reduction is
//
//	VMAXPD acc, cand, acc
//
// whose first source is the candidate and second the accumulator: the
// result is the candidate exactly when cand > acc and the accumulator
// otherwise, also when either is NaN and for +0 against -0. That is the
// scalar `if cand > acc { acc = cand }`, so every lane gets RunLight's bits.
// Each sum is one VADDPD in the scalar operand order.

// func forwardAVX2(arr, gd, scale, nom []float64, topo, predStart, preds []int32, n, w int)
//
// For g in topological order: gd[g] = nom[g]*scale[d*n+g] for each lane d
// (scale starts at the block's first die row), then arr[g] = max over g's
// fanin p, in pin order, of arr[p] (from +0), plus gd[g]. The topological
// order covers every gate, so the pass fills all of gd.
TEXT ·forwardAVX2(SB), NOSPLIT, $0-184
	MOVQ arr_base+0(FP), DI
	MOVQ gd_base+24(FP), SI
	MOVQ scale_base+48(FP), R9
	MOVQ nom_base+72(FP), R15
	MOVQ topo_base+96(FP), R8
	MOVQ predStart_base+120(FP), R10
	MOVQ preds_base+144(FP), R11
	MOVQ n+168(FP), R14
	SHLQ $3, R14                    // bytes per die row of scale
	MOVQ w+176(FP), R12
	SHLQ $3, R12                    // bytes per gate
	XORQ CX, CX

fgate:
	CMPQ    CX, topo_len+104(FP)
	JGE     fdone
	MOVLQSX (R8)(CX*4), AX          // g
	MOVLQSX (R10)(AX*4), BX         // predStart[g]
	MOVLQSX 4(R10)(AX*4), DX        // predStart[g+1]
	VXORPD  Y0, Y0, Y0

fpred:
	CMPQ    BX, DX
	JGE     fstore
	MOVLQSX (R11)(BX*4), R13        // p
	IMULQ   R12, R13
	VMOVUPD (DI)(R13*1), Y1
	VMAXPD  Y0, Y1, Y0
	INCQ    BX
	JMP     fpred

fstore:
	LEAQ         (R9)(AX*8), R13    // lane 0's scale of g
	LEAQ         (R13)(R14*2), BX   // lane 2's
	VMOVSD       (R13), X2
	VMOVHPD      (R13)(R14*1), X2, X2
	VMOVSD       (BX), X3
	VMOVHPD      (BX)(R14*1), X3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VBROADCASTSD (R15)(AX*8), Y3
	VMULPD       Y2, Y3, Y2         // nom[g] * scale
	IMULQ        R12, AX
	VMOVUPD      Y2, (SI)(AX*1)
	VADDPD       Y2, Y0, Y0
	VMOVUPD      Y0, (DI)(AX*1)
	INCQ         CX
	JMP          fgate

fdone:
	VZEROUPPER
	RET

// func backwardAVX2(tail, gd []float64, topo, succStart, succs []int32, succSetupPS []float64, w int)
//
// For g in reverse topological order: tail[g] = max over g's fanout pins k,
// in fanout order, from +0, of the flip-flop setup time succSetupPS[k] when
// it is >= 0 and of gd[f]+tail[f] for the consumer f otherwise.
TEXT ·backwardAVX2(SB), NOSPLIT, $0-152
	MOVQ   tail_base+0(FP), DI
	MOVQ   gd_base+24(FP), SI
	MOVQ   topo_base+48(FP), R8
	MOVQ   topo_len+56(FP), CX
	MOVQ   succStart_base+72(FP), R10
	MOVQ   succs_base+96(FP), R11
	MOVQ   succSetupPS_base+120(FP), R9
	MOVQ   w+144(FP), R12
	SHLQ   $3, R12
	VXORPD X3, X3, X3               // +0 for the setup test

bgate:
	DECQ    CX
	JLT     bdone
	MOVLQSX (R8)(CX*4), AX          // g
	MOVLQSX (R10)(AX*4), BX         // succStart[g]
	MOVLQSX 4(R10)(AX*4), DX        // succStart[g+1]
	VXORPD  Y0, Y0, Y0

bsucc:
	CMPQ     BX, DX
	JGE      bstore
	VMOVSD   (R9)(BX*8), X1
	VUCOMISD X3, X1
	JCS      bcomb                  // setup < 0 or NaN: a gate consumer
	VBROADCASTSD (R9)(BX*8), Y1
	JMP      bmax

bcomb:
	MOVLQSX (R11)(BX*4), R13        // f
	IMULQ   R12, R13
	VMOVUPD (SI)(R13*1), Y1
	VADDPD  (DI)(R13*1), Y1, Y1

bmax:
	VMAXPD Y0, Y1, Y0
	INCQ   BX
	JMP    bsucc

bstore:
	IMULQ   R12, AX
	VMOVUPD Y0, (DI)(AX*1)
	JMP     bgate

bdone:
	VZEROUPPER
	RET

// func dcritAVX2(dc, arr, tail []float64, n, w int)
//
// dc = max over gates g < n, in index order, from +0, of arr[g]+tail[g].
TEXT ·dcritAVX2(SB), NOSPLIT, $0-88
	MOVQ   dc_base+0(FP), DI
	MOVQ   arr_base+24(FP), SI
	MOVQ   tail_base+48(FP), DX
	MOVQ   n+72(FP), CX
	MOVQ   w+80(FP), R12
	SHLQ   $3, R12
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0

dgate:
	DECQ    CX
	JLT     ddone
	VMOVUPD (SI)(AX*1), Y1
	VADDPD  (DX)(AX*1), Y1, Y1
	VMAXPD  Y0, Y1, Y0
	ADDQ    R12, AX
	JMP     dgate

ddone:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET
