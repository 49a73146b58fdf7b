#include "textflag.h"

// func axpyAsm(y, x []float64, f float64)
//
// y[j] -= f*x[j] for j < len(y): eight lanes a step, then one block of
// four, then single lanes. Each lane is one multiply and one subtract,
// never an FMA, so it rounds twice exactly like the compiled scalar
// statement; x is the first source of the multiply and y of the subtract,
// as in the compiled loop, so even a NaN's payload comes from the same
// operand.
// len(x) must be at least len(y).
TEXT ·axpyAsm(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD f+48(FP), Y0
	XORQ         AX, AX

loop8:
	LEAQ    8(AX), BX
	CMPQ    BX, CX
	JGT     tail4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(DI)(AX*8), Y4
	VSUBPD  Y1, Y3, Y3
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD Y4, 32(DI)(AX*8)
	MOVQ    BX, AX
	JMP     loop8

tail4:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     tail1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	MOVQ    BX, AX

tail1:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD (DI)(AX*8), X3
	VSUBSD X1, X3, X3
	VMOVSD X3, (DI)(AX*8)
	INCQ   AX
	JMP    tail1

done:
	VZEROUPPER
	RET
