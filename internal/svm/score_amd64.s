#include "textflag.h"

DATA one<>+0(SB)/8, $1.0
GLOBL one<>(SB), RODATA, $8

// func scoreAVX2(out, xT, w *float64, parent, pow *int32, table *float64, dim, degree, nf int, scale float64)
//
// Scores 16 draws against the weights w through the basis program
// (parent, pow) of nf features: out[b] = w·f(x_b), bit-identical to
// program.score on each draw. xT holds the draws transposed, dimension d of
// draw b at xT[16*d+b]. table is scratch for the power table, dim*(degree+1)
// rows, followed by the feature table, nf rows; a row holds one value per
// draw, 16 doubles (128 bytes), in four YMM quads.
//
// The kernel repeats the scalar operations lane by lane, in the scalar
// order: the powers x_d/scale (a true division), (x_d/scale)^k =
// (x_d/scale)^(k-1) · x_d/scale from 1; then, feature by feature in index
// order, f_i = f_parent(i) · power_pow(i) and s += w_i · f_i from
// s = 0 + w_0. Multiplies and adds stay separate instructions: the scalar
// loop has no FMA contraction at any GOAMD64 level, so neither has this.
TEXT ·scoreAVX2(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DI
	MOVQ xT+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ parent+24(FP), R9
	MOVQ pow+32(FP), R10
	MOVQ table+40(FP), R11
	MOVQ dim+48(FP), CX
	MOVQ degree+56(FP), DX
	MOVQ nf+64(FP), R12
	VBROADCASTSD scale+72(FP), Y15
	VBROADCASTSD one<>(SB), Y14
	MOVQ R11, BX // power-table row being written

powdim:
	TESTQ CX, CX
	JEQ features
	VMOVUPD 0(SI), Y0
	VDIVPD Y15, Y0, Y0 // x_d / scale
	VMOVUPD 32(SI), Y1
	VDIVPD Y15, Y1, Y1
	VMOVUPD 64(SI), Y2
	VDIVPD Y15, Y2, Y2
	VMOVUPD 96(SI), Y3
	VDIVPD Y15, Y3, Y3
	VMOVUPD Y14, 0(BX) // power 0 is 1
	VMOVUPD Y14, 32(BX)
	VMOVUPD Y14, 64(BX)
	VMOVUPD Y14, 96(BX)
	VMOVAPD Y14, Y4
	VMOVAPD Y14, Y5
	VMOVAPD Y14, Y6
	VMOVAPD Y14, Y7
	MOVQ DX, AX

powk:
	ADDQ $128, BX
	VMULPD Y0, Y4, Y4 // power k = power k-1 * (x_d / scale)
	VMULPD Y1, Y5, Y5
	VMULPD Y2, Y6, Y6
	VMULPD Y3, Y7, Y7
	VMOVUPD Y4, 0(BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, 64(BX)
	VMOVUPD Y7, 96(BX)
	DECQ AX
	JNE powk
	ADDQ $128, BX
	ADDQ $128, SI
	DECQ CX
	JMP powdim

features:
	MOVQ BX, R13 // feature table: row i is f_i
	VMOVUPD Y14, 0(BX) // f_0 = 1
	VMOVUPD Y14, 32(BX)
	VMOVUPD Y14, 64(BX)
	VMOVUPD Y14, 96(BX)
	VXORPD Y8, Y8, Y8
	VBROADCASTSD 0(R8), Y12
	VADDPD Y12, Y8, Y8 // s = 0 + w_0
	VMOVAPD Y8, Y9
	VMOVAPD Y8, Y10
	VMOVAPD Y8, Y11
	LEAQ 128(R13), R14 // row of f_1
	MOVQ $1, CX

feature:
	CMPQ CX, R12
	JGE store
	MOVLQSX (R9)(CX*4), AX
	SHLQ $7, AX
	ADDQ R13, AX // row of f_parent(i)
	MOVLQSX (R10)(CX*4), DX
	SHLQ $7, DX
	ADDQ R11, DX // row of power_pow(i)
	VBROADCASTSD (R8)(CX*8), Y12
	VMOVUPD 0(AX), Y0
	VMULPD 0(DX), Y0, Y0 // f_i = f_parent * power
	VMOVUPD Y0, 0(R14)
	VMULPD Y0, Y12, Y13  // w_i * f_i
	VADDPD Y13, Y8, Y8   // s += w_i * f_i
	VMOVUPD 32(AX), Y1
	VMULPD 32(DX), Y1, Y1
	VMOVUPD Y1, 32(R14)
	VMULPD Y1, Y12, Y13
	VADDPD Y13, Y9, Y9
	VMOVUPD 64(AX), Y2
	VMULPD 64(DX), Y2, Y2
	VMOVUPD Y2, 64(R14)
	VMULPD Y2, Y12, Y13
	VADDPD Y13, Y10, Y10
	VMOVUPD 96(AX), Y3
	VMULPD 96(DX), Y3, Y3
	VMOVUPD Y3, 96(R14)
	VMULPD Y3, Y12, Y13
	VADDPD Y13, Y11, Y11
	ADDQ $128, R14
	INCQ CX
	JMP feature

store:
	VMOVUPD Y8, 0(DI)
	VMOVUPD Y9, 32(DI)
	VMOVUPD Y10, 64(DI)
	VMOVUPD Y11, 96(DI)
	VZEROUPPER
	RET
