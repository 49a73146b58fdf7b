#include "textflag.h"

// Broadcast constants of the Exp/Log sweeps: one 32-byte row per value, so
// every use is a plain ymm memory operand. The float rows are the constants
// of math.archExp (exp_amd64.s) and math.archLog (log_amd64.s), as the
// assembler rounds their decimal literals.
#define ROW(off, bits) \
	DATA expconst<>+(off)(SB)/8, bits; \
	DATA expconst<>+(off+8)(SB)/8, bits; \
	DATA expconst<>+(off+16)(SB)/8, bits; \
	DATA expconst<>+(off+24)(SB)/8, bits

ROW(0, $0x7fffffffffffffff)   // |x| mask
ROW(32, $0x8000000000000000)  // sign bit
ROW(64, $0x4080000000000000)  // 512, the Exp window
ROW(96, $0x3ff71547652b82fe)  // LOG2E
ROW(128, $0x3fe62e42fefa3000) // LN2U
ROW(160, $0x3d53de6af278ece6) // LN2L
ROW(192, $0x3fb0000000000000) // 0.0625
ROW(224, $0x3efa01a01a01a01a) // 2.4801587301587301587e-5
ROW(256, $0x3f2a01a01a01a01a) // 1.9841269841269841270e-4
ROW(288, $0x3f56c16c16c16c17) // 1.3888888888888888889e-3
ROW(320, $0x3f81111111111111) // 8.3333333333333333333e-3
ROW(352, $0x3fa5555555555555) // 4.1666666666666666667e-2
ROW(384, $0x3fc5555555555555) // 1.6666666666666666667e-1
ROW(416, $0x3fe0000000000000) // 0.5
ROW(448, $0x3ff0000000000000) // 1.0
ROW(480, $0x4000000000000000) // 2.0
ROW(512, $0x00000000000003ff) // int64 exponent bias
ROW(544, $0x000fffffffffffff) // mantissa mask
ROW(576, $0x4330000000000000) // 2^52
ROW(608, $0x43300000000003fe) // 2^52 + 1022
ROW(640, $0x3fe6a09e667f3bcd) // HSqrt2
ROW(672, $0x3fe62e42fee00000) // Ln2Hi
ROW(704, $0x3dea39ef35793c76) // Ln2Lo
ROW(736, $0x3fe5555555555593) // L1
ROW(768, $0x3fd999999997fa04) // L2
ROW(800, $0x3fd2492494229359) // L3
ROW(832, $0x3fcc71c51d8e78af) // L4
ROW(864, $0x3fc7466496cb03de) // L5
ROW(896, $0x3fc39a09d078c69f) // L6
ROW(928, $0x3fc2f112df3e5244) // L7
ROW(960, $0x3fa999999999999a) // 0.05, the overdrive clamp
ROW(992, $0x1a70000000000000) // 2^-600
ROW(1024, $0x6570000000000000) // 2^600
GLOBL expconst<>(SB), RODATA|NOPTR, $1056

#define ABSMASK expconst<>+0(SB)
#define SIGN expconst<>+32(SB)
#define EXPMAX expconst<>+64(SB)
#define LOG2E expconst<>+96(SB)
#define LN2U expconst<>+128(SB)
#define LN2L expconst<>+160(SB)
#define SIXTEENTH expconst<>+192(SB)
#define E64 expconst<>+224(SB)
#define E56 expconst<>+256(SB)
#define E48 expconst<>+288(SB)
#define E40 expconst<>+320(SB)
#define E32 expconst<>+352(SB)
#define E24 expconst<>+384(SB)
#define HALF expconst<>+416(SB)
#define ONE expconst<>+448(SB)
#define TWO expconst<>+480(SB)
#define BIAS expconst<>+512(SB)
#define MANT expconst<>+544(SB)
#define TWO52 expconst<>+576(SB)
#define TWO52K expconst<>+608(SB)
#define HSQRT2 expconst<>+640(SB)
#define LN2HI expconst<>+672(SB)
#define LN2LO expconst<>+704(SB)
#define L1 expconst<>+736(SB)
#define L2 expconst<>+768(SB)
#define L3 expconst<>+800(SB)
#define L4 expconst<>+832(SB)
#define L5 expconst<>+864(SB)
#define L6 expconst<>+896(SB)
#define L7 expconst<>+928(SB)
#define CLAMP expconst<>+960(SB)
#define RMIN expconst<>+992(SB)
#define RMAX expconst<>+1024(SB)

// EXPWINDOW leaves the block to the scalar call unless every lane of Y0
// has |x| <= 512 (NaN compares false too). On that window math.archExp
// takes neither its overflow nor its denormal branch.
#define EXPWINDOW \
	VANDPD    ABSMASK, Y0, Y1; \
	VCMPPD    $2, EXPMAX, Y1, Y1; \
	VMOVMSKPD Y1, BX; \
	CMPQ      BX, $15; \
	JNE       done

// EXPREDUCE sets Y1 = float64(k) and X2 = k, k = round(x*LOG2E) in the
// current (round-to-nearest) mode, as archExp's CVTSD2SL does.
#define EXPREDUCE \
	VMULPD     LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// EXPSCALE multiplies Y0 by 2^k, k in X2: archExp's lastStep.
#define EXPSCALE \
	VPMOVSXDQ X2, Y1; \
	VPADDQ    BIAS, Y1, Y1; \
	VPSLLQ    $52, Y1, Y1; \
	VMULPD    Y1, Y0, Y0

// EXPPLAIN sets Y0 = math.Exp(Y0) with archExp's non-FMA sequence:
// separate multiply and subtract in the Cody-Waite reduction and the
// Horner steps, four squarings x*(x+2), then +1.
#define EXPPLAIN \
	EXPREDUCE; \
	VMULPD LN2U, Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD LN2L, Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD SIXTEENTH, Y0, Y0; \
	VMULPD E64, Y0, Y1; \
	VADDPD E56, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD E48, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD E40, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD E32, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD E24, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD HALF, Y1, Y1; \
	VMULPD Y0, Y1, Y1; \
	VADDPD ONE, Y1, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD TWO, Y0, Y1; \
	VMULPD Y1, Y0, Y0; \
	VADDPD ONE, Y0, Y0; \
	EXPSCALE

// EXPFMA sets Y0 = math.Exp(Y0) with archExp's FMA sequence: fused
// reduction (VFNMADD231) and Horner steps (VFMADD213), three squarings,
// then the fourth fused with the final +1.
#define EXPFMA \
	EXPREDUCE; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      E64, Y1; \
	VFMADD213PD  E56, Y0, Y1; \
	VFMADD213PD  E48, Y0, Y1; \
	VFMADD213PD  E40, Y0, Y1; \
	VFMADD213PD  E32, Y0, Y1; \
	VFMADD213PD  E24, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	EXPSCALE

// func delayBlocks(dst, dvth []float64, over0, am1, tdf float64, fma bool) int
//
// For i = 0, 4, 8, ... it computes, four lanes at a time,
//
//	over := max-clamped over0 - dvth[i] (below 0.05 it is 0.05)
//	r := over0 / over
//	dst[i] = (math.Exp(am1*math.Log(r)) * r) * tdf
//
// with exactly the IEEE operations of Process.DelayFactorDVth's alphaPow
// path: math.archLog op for op, then math.archExp's FMA or non-FMA
// sequence as fma selects. It stops before the first block that holds a
// lane with r outside [2^-600, 2^600] or NaN (alphaPow defers to math.Pow
// there) or |am1*Log(r)| > 512, or when fewer than four lanes remain, and
// returns the number of lanes done. len(dst) must be at least len(dvth);
// dst may be dvth itself.
TEXT ·delayBlocks(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DX
	MOVQ         dvth_base+24(FP), SI
	MOVQ         dvth_len+32(FP), CX
	VBROADCASTSD over0+48(FP), Y15
	VBROADCASTSD am1+56(FP), Y14
	VBROADCASTSD tdf+64(FP), Y13
	MOVBQZX      fma+72(FP), R8
	XORQ         AX, AX

dloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  done

	// over = over0 - dvth, clamped to 0.05 from below; r = over0/over (Y8)
	VSUBPD    (SI)(AX*8), Y15, Y0
	VCMPPD    $1, CLAMP, Y0, Y1
	VBLENDVPD Y1, CLAMP, Y0, Y0
	VDIVPD    Y0, Y15, Y8

	// Leave the block to the scalar call unless 2^-600 <= r <= 2^600 in
	// every lane (NaN compares false).
	VCMPPD    $13, RMIN, Y8, Y1
	VCMPPD    $2, RMAX, Y8, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, BX
	CMPQ      BX, $15
	JNE       done

	// archLog: f1 = mantissa of r in [0.5, 1) (Y2), k = exponent (Y1).
	VANDPD MANT, Y8, Y2
	VORPD  HALF, Y2, Y2
	VPSRLQ $52, Y8, Y1
	VPOR   TWO52, Y1, Y1
	VSUBPD TWO52K, Y1, Y1

	// if !(HSqrt2 < f1) { k -= 1; f1 *= 2 }; f = f1 - 1 (Y2)
	VMOVUPD HSQRT2, Y3
	VCMPPD  $5, Y2, Y3, Y3
	VANDPD  ONE, Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  ONE, Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  ONE, Y2, Y2

	// s = f/(2+f) (Y3), s2 (Y4), s4 (Y5)
	VADDPD TWO, Y2, Y3
	VDIVPD Y3, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 = s2*(L1 + s4*(L3 + s4*(L5 + s4*L7))) (Y4)
	VMULPD L7, Y5, Y6
	VADDPD L5, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L1, Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 = s4*(L2 + s4*(L4 + s4*L6)) (Y5); R = t1 + t2 (Y4)
	VMULPD L6, Y5, Y6
	VADDPD L4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L2, Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq = 0.5*f*f (Y6);
	// Log = k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f) (Y1)
	VMULPD HALF, Y2, Y6
	VMULPD Y2, Y6, Y6
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD LN2LO, Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y2, Y6, Y6
	VMULPD LN2HI, Y1, Y1
	VSUBPD Y6, Y1, Y1

	// dst = (Exp(am1*Log) * r) * tdf
	VMULPD Y14, Y1, Y0
	EXPWINDOW
	TESTQ R8, R8
	JNZ   dfma
	EXPPLAIN
	JMP   dexp

dfma:
	EXPFMA

dexp:
	VMULPD  Y8, Y0, Y0
	VMULPD  Y13, Y0, Y0
	VMOVUPD Y0, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     dloop

done:
	VZEROUPPER
	MOVQ AX, ret+80(FP)
	RET

// func subBlocks(dst, dvth []float64, slope float64, fma bool) int
//
// For i = 0, 4, 8, ... it computes, four lanes at a time,
//
//	dst[i] = math.Exp(-dvth[i] / slope)
//
// with math.archExp's FMA or non-FMA sequence as fma selects, bit-identical
// to Process.SubFactorDVth. It stops before the first block that holds a
// lane with |-dvth/slope| > 512 or NaN, or when fewer than four lanes
// remain, and returns the number of lanes done. len(dst) must be at least
// len(dvth); dst may be dvth itself.
TEXT ·subBlocks(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DX
	MOVQ         dvth_base+24(FP), SI
	MOVQ         dvth_len+32(FP), CX
	VBROADCASTSD slope+48(FP), Y15
	MOVBQZX      fma+56(FP), R8
	XORQ         AX, AX

sloop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  done

	VMOVUPD (SI)(AX*8), Y0
	VXORPD  SIGN, Y0, Y0
	VDIVPD  Y15, Y0, Y0
	EXPWINDOW
	TESTQ R8, R8
	JNZ   sfma
	EXPPLAIN
	JMP   sexp

sfma:
	EXPFMA

sexp:
	VMOVUPD Y0, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     sloop

done:
	VZEROUPPER
	MOVQ AX, ret+64(FP)
	RET
