#include "textflag.h"

// Broadcast constants of the AVX2 cosine sweep: one 32-byte row per value,
// so every use is a plain ymm memory operand. The float rows are math.Cos's
// own constants (sin.go): the Pi/4 split, the octant scale 4/Pi and the two
// degree-5 polynomials.
#define ROW(off, bits) \
	DATA cosconst<>+(off)(SB)/8, bits; \
	DATA cosconst<>+(off+8)(SB)/8, bits; \
	DATA cosconst<>+(off+16)(SB)/8, bits; \
	DATA cosconst<>+(off+24)(SB)/8, bits

ROW(0, $0x7fffffffffffffff)   // |x| mask
ROW(32, $0x41c0000000000000)  // 2^29, math's reduceThreshold
ROW(64, $0x3ff45f306dc9c883)  // 4/Pi
ROW(96, $0x3fe921fb40000000)  // PI4A
ROW(128, $0x3e64442d00000000) // PI4B
ROW(160, $0x3ce8469898cc5170) // PI4C
ROW(192, $0x8000000000000000) // sign bit
ROW(224, $0x3fe0000000000000) // 0.5
ROW(256, $0x3ff0000000000000) // 1.0
ROW(288, $0xbda8fa49a0861a9b) // _cos[0]
ROW(320, $0x3e21ee9d7b4e3f05) // _cos[1]
ROW(352, $0xbe927e4f7eac4bc6) // _cos[2]
ROW(384, $0x3efa01a019c844f5) // _cos[3]
ROW(416, $0xbf56c16c16c14f91) // _cos[4]
ROW(448, $0x3fa555555555554b) // _cos[5]
ROW(480, $0x3de5d8fd1fd19ccd) // _sin[0]
ROW(512, $0xbe5ae5e5a9291f5d) // _sin[1]
ROW(544, $0x3ec71de3567d48a1) // _sin[2]
ROW(576, $0xbf2a01a019bfdf03) // _sin[3]
ROW(608, $0x3f8111111110f7d0) // _sin[4]
ROW(640, $0xbfc5555555555548) // _sin[5]
ROW(672, $0x0000000100000001) // int32 1 in every lane
ROW(704, $0xfffffffefffffffe) // int32 ^1 in every lane
GLOBL cosconst<>(SB), RODATA|NOPTR, $736

#define ABSMASK cosconst<>+0(SB)
#define THRESH cosconst<>+32(SB)
#define FOUROPI cosconst<>+64(SB)
#define PI4A cosconst<>+96(SB)
#define PI4B cosconst<>+128(SB)
#define PI4C cosconst<>+160(SB)
#define SIGN cosconst<>+192(SB)
#define HALF cosconst<>+224(SB)
#define ONE cosconst<>+256(SB)
#define ONES32 cosconst<>+672(SB)
#define NOTONE32 cosconst<>+704(SB)

// COEF sets dst to the k-th polynomial coefficient of each lane: _sin[k]
// where the lane's mask (Y4) is set, _cos[k] elsewhere.
#define COEF(k, dst) \
	VMOVUPD cosconst<>+(288+32*k)(SB), dst; \
	VBLENDVPD Y4, cosconst<>+(480+32*k)(SB), dst, dst

// func cosBlocksAVX2(dv, xs, ys []float64, kx, ky, phase, amp float64) int
//
// For g = 0, 4, 8, ... it computes, four lanes at a time,
//
//	dv[g] += amp * math.Cos(kx*xs[g] + ky*ys[g] + phase)
//
// with exactly the IEEE operations math.Cos performs on its reduced-range
// path: the same Cody-Waite reduction, the same Horner polynomials, no FMA.
// The octant's polynomial is chosen per lane by blending the sin and cos
// coefficients and the sign is applied with an XOR, so every lane is
// bit-identical to the scalar call. It stops before the first block that
// holds a lane with |arg| >= 2^29, NaN or Inf (math.Cos takes its
// Payne-Hanek or special-case path there), or when fewer than four gates
// remain, and returns the number of gates done. len(dv) and len(ys) must be
// at least len(xs).
TEXT ·cosBlocksAVX2(SB), NOSPLIT, $0-112
	MOVQ dv_base+0(FP), DX
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), CX
	MOVQ ys_base+48(FP), DI
	VBROADCASTSD kx+72(FP), Y15
	VBROADCASTSD ky+80(FP), Y14
	VBROADCASTSD phase+88(FP), Y13
	VBROADCASTSD amp+96(FP), Y12
	XORQ AX, AX

loop:
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  done

	// arg = (kx*x + ky*y) + phase; x = |arg|
	VMULPD (SI)(AX*8), Y15, Y0
	VMULPD (DI)(AX*8), Y14, Y1
	VADDPD Y1, Y0, Y0
	VADDPD Y13, Y0, Y0
	VANDPD ABSMASK, Y0, Y0

	// Leave the block to math.Cos unless every lane is below 2^29
	// (NaN and Inf compare not-less-than too).
	VCMPPD    $5, THRESH, Y0, Y2
	VMOVMSKPD Y2, BX
	TESTQ     BX, BX
	JNZ       done

	// j = uint64(x*(4/Pi)), rounded up to even; y = float64(j)
	VMULPD      FOUROPI, Y0, Y1
	VCVTTPD2DQY Y1, X1
	VPADDD      ONES32, X1, X1
	VPAND       NOTONE32, X1, X1
	VCVTDQ2PD   X1, Y2
	VPMOVSXDQ   X1, Y3

	// z = ((x - y*PI4A) - y*PI4B) - y*PI4C; zz = z*z
	VMULPD PI4A, Y2, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD PI4B, Y2, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD PI4C, Y2, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD Y0, Y0, Y1

	// Octant j mod 8 (even): bit 1 selects the sin polynomial, bit 1 xor
	// bit 2 negates the result.
	VPSLLQ $62, Y3, Y4
	VPSRLQ $1, Y3, Y5
	VPXOR  Y3, Y5, Y5
	VPSLLQ $62, Y5, Y5
	VPAND  SIGN, Y5, Y5

	// p = ((((c0*zz + c1)*zz + c2)*zz + c3)*zz + c4)*zz + c5
	COEF(0, Y6)
	VMULPD Y1, Y6, Y6
	COEF(1, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y1, Y6, Y6
	COEF(2, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y1, Y6, Y6
	COEF(3, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y1, Y6, Y6
	COEF(4, Y7)
	VADDPD Y7, Y6, Y6
	VMULPD Y1, Y6, Y6
	COEF(5, Y7)
	VADDPD Y7, Y6, Y6

	// sin lanes: z + (z*zz)*p; cos lanes: (1 - 0.5*zz) + (zz*zz)*p
	VMULPD    HALF, Y1, Y7
	VMOVUPD   ONE, Y8
	VSUBPD    Y7, Y8, Y8
	VBLENDVPD Y4, Y0, Y8, Y8
	VBLENDVPD Y4, Y0, Y1, Y9
	VMULPD    Y1, Y9, Y9
	VMULPD    Y6, Y9, Y9
	VADDPD    Y9, Y8, Y8
	VXORPD    Y5, Y8, Y8

	// dv += amp*cos
	VMULPD  Y12, Y8, Y8
	VADDPD  (DX)(AX*8), Y8, Y8
	VMOVUPD Y8, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     loop

done:
	VZEROUPPER
	MOVQ AX, ret+104(FP)
	RET
