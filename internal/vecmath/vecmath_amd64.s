#include "textflag.h"

// The vector kernels of the package, over AVX2+FMA: the 4-wide softplus
// log1p(exp(x)) of the device layer and the mixture log-sum-exp fold of the
// proposal log-density. Both share one exp stage, EXPBODY.
//
// Bit-exactness contract: inside the envelope (-708, 709) — see vecmath.go —
// EXPBODY gives every lane exactly the bits of math.Exp(x): it replicates
// math.archExp's FMA path (GOROOT/src/math/exp_amd64.s) instruction for
// instruction in packed form. The softplus kernel then gives every lane
// exactly the bits of math.Log1p(math.Exp(x)) with the ±35 clamps of
// vecmath.Scalar: its log1p stage replicates math.log1p (GOROOT/src/math/
// log1p.go, an FDLIBM translation) with plain packed mul/add/div only — no
// FMA contraction — because the scalar code has none. Both branches of
// every data-dependent scalar decision are computed on all lanes and
// resolved with VBLENDVPD masks, in an order that mirrors the scalar
// control flow (later blends override earlier ones exactly where the
// scalar branch would have been taken first).
//
// Lanes outside the envelope — where archExp would take its overflow,
// denormal or non-finite exits — produce garbage without faulting (all FP
// exceptions are masked). The softplus kernel reports whether any lane of
// the call left the envelope, and Softplus then overwrites those lanes; the
// fold kernel only ever feeds EXPBODY arguments inside (-40, 0] and masks
// the rest to +0.

DATA spdata<>+0(SB)/8, $1.4426950408889634073599246810018920
DATA spdata<>+8(SB)/8, $1.4426950408889634073599246810018920
DATA spdata<>+16(SB)/8, $1.4426950408889634073599246810018920
DATA spdata<>+24(SB)/8, $1.4426950408889634073599246810018920
DATA spdata<>+32(SB)/8, $0.69314718055966295651160180568695068359375
DATA spdata<>+40(SB)/8, $0.69314718055966295651160180568695068359375
DATA spdata<>+48(SB)/8, $0.69314718055966295651160180568695068359375
DATA spdata<>+56(SB)/8, $0.69314718055966295651160180568695068359375
DATA spdata<>+64(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA spdata<>+72(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA spdata<>+80(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA spdata<>+88(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA spdata<>+96(SB)/8, $0.0625
DATA spdata<>+104(SB)/8, $0.0625
DATA spdata<>+112(SB)/8, $0.0625
DATA spdata<>+120(SB)/8, $0.0625
DATA spdata<>+128(SB)/8, $2.4801587301587301587e-5
DATA spdata<>+136(SB)/8, $2.4801587301587301587e-5
DATA spdata<>+144(SB)/8, $2.4801587301587301587e-5
DATA spdata<>+152(SB)/8, $2.4801587301587301587e-5
DATA spdata<>+160(SB)/8, $1.9841269841269841270e-4
DATA spdata<>+168(SB)/8, $1.9841269841269841270e-4
DATA spdata<>+176(SB)/8, $1.9841269841269841270e-4
DATA spdata<>+184(SB)/8, $1.9841269841269841270e-4
DATA spdata<>+192(SB)/8, $1.3888888888888888889e-3
DATA spdata<>+200(SB)/8, $1.3888888888888888889e-3
DATA spdata<>+208(SB)/8, $1.3888888888888888889e-3
DATA spdata<>+216(SB)/8, $1.3888888888888888889e-3
DATA spdata<>+224(SB)/8, $8.3333333333333333333e-3
DATA spdata<>+232(SB)/8, $8.3333333333333333333e-3
DATA spdata<>+240(SB)/8, $8.3333333333333333333e-3
DATA spdata<>+248(SB)/8, $8.3333333333333333333e-3
DATA spdata<>+256(SB)/8, $4.1666666666666666667e-2
DATA spdata<>+264(SB)/8, $4.1666666666666666667e-2
DATA spdata<>+272(SB)/8, $4.1666666666666666667e-2
DATA spdata<>+280(SB)/8, $4.1666666666666666667e-2
DATA spdata<>+288(SB)/8, $1.6666666666666666667e-1
DATA spdata<>+296(SB)/8, $1.6666666666666666667e-1
DATA spdata<>+304(SB)/8, $1.6666666666666666667e-1
DATA spdata<>+312(SB)/8, $1.6666666666666666667e-1
DATA spdata<>+320(SB)/8, $0.5
DATA spdata<>+328(SB)/8, $0.5
DATA spdata<>+336(SB)/8, $0.5
DATA spdata<>+344(SB)/8, $0.5
DATA spdata<>+352(SB)/8, $1.0
DATA spdata<>+360(SB)/8, $1.0
DATA spdata<>+368(SB)/8, $1.0
DATA spdata<>+376(SB)/8, $1.0
DATA spdata<>+384(SB)/8, $2.0
DATA spdata<>+392(SB)/8, $2.0
DATA spdata<>+400(SB)/8, $2.0
DATA spdata<>+408(SB)/8, $2.0
DATA spdata<>+416(SB)/8, $0x00000000000003FF
DATA spdata<>+424(SB)/8, $0x00000000000003FF
DATA spdata<>+432(SB)/8, $0x00000000000003FF
DATA spdata<>+440(SB)/8, $0x00000000000003FF
DATA spdata<>+448(SB)/8, $4.142135623730950488017e-01
DATA spdata<>+456(SB)/8, $4.142135623730950488017e-01
DATA spdata<>+464(SB)/8, $4.142135623730950488017e-01
DATA spdata<>+472(SB)/8, $4.142135623730950488017e-01
DATA spdata<>+480(SB)/8, $0x3E20000000000000
DATA spdata<>+488(SB)/8, $0x3E20000000000000
DATA spdata<>+496(SB)/8, $0x3E20000000000000
DATA spdata<>+504(SB)/8, $0x3E20000000000000
DATA spdata<>+512(SB)/8, $6.93147180369123816490e-01
DATA spdata<>+520(SB)/8, $6.93147180369123816490e-01
DATA spdata<>+528(SB)/8, $6.93147180369123816490e-01
DATA spdata<>+536(SB)/8, $6.93147180369123816490e-01
DATA spdata<>+544(SB)/8, $1.90821492927058770002e-10
DATA spdata<>+552(SB)/8, $1.90821492927058770002e-10
DATA spdata<>+560(SB)/8, $1.90821492927058770002e-10
DATA spdata<>+568(SB)/8, $1.90821492927058770002e-10
DATA spdata<>+576(SB)/8, $6.666666666666735130e-01
DATA spdata<>+584(SB)/8, $6.666666666666735130e-01
DATA spdata<>+592(SB)/8, $6.666666666666735130e-01
DATA spdata<>+600(SB)/8, $6.666666666666735130e-01
DATA spdata<>+608(SB)/8, $3.999999999940941908e-01
DATA spdata<>+616(SB)/8, $3.999999999940941908e-01
DATA spdata<>+624(SB)/8, $3.999999999940941908e-01
DATA spdata<>+632(SB)/8, $3.999999999940941908e-01
DATA spdata<>+640(SB)/8, $2.857142874366239149e-01
DATA spdata<>+648(SB)/8, $2.857142874366239149e-01
DATA spdata<>+656(SB)/8, $2.857142874366239149e-01
DATA spdata<>+664(SB)/8, $2.857142874366239149e-01
DATA spdata<>+672(SB)/8, $2.222219843214978396e-01
DATA spdata<>+680(SB)/8, $2.222219843214978396e-01
DATA spdata<>+688(SB)/8, $2.222219843214978396e-01
DATA spdata<>+696(SB)/8, $2.222219843214978396e-01
DATA spdata<>+704(SB)/8, $1.818357216161805012e-01
DATA spdata<>+712(SB)/8, $1.818357216161805012e-01
DATA spdata<>+720(SB)/8, $1.818357216161805012e-01
DATA spdata<>+728(SB)/8, $1.818357216161805012e-01
DATA spdata<>+736(SB)/8, $1.531383769920937332e-01
DATA spdata<>+744(SB)/8, $1.531383769920937332e-01
DATA spdata<>+752(SB)/8, $1.531383769920937332e-01
DATA spdata<>+760(SB)/8, $1.531383769920937332e-01
DATA spdata<>+768(SB)/8, $1.479819860511658591e-01
DATA spdata<>+776(SB)/8, $1.479819860511658591e-01
DATA spdata<>+784(SB)/8, $1.479819860511658591e-01
DATA spdata<>+792(SB)/8, $1.479819860511658591e-01
DATA spdata<>+800(SB)/8, $0x000FFFFFFFFFFFFF
DATA spdata<>+808(SB)/8, $0x000FFFFFFFFFFFFF
DATA spdata<>+816(SB)/8, $0x000FFFFFFFFFFFFF
DATA spdata<>+824(SB)/8, $0x000FFFFFFFFFFFFF
DATA spdata<>+832(SB)/8, $0x0006A09E667F3BCD
DATA spdata<>+840(SB)/8, $0x0006A09E667F3BCD
DATA spdata<>+848(SB)/8, $0x0006A09E667F3BCD
DATA spdata<>+856(SB)/8, $0x0006A09E667F3BCD
DATA spdata<>+864(SB)/8, $0x3FF0000000000000
DATA spdata<>+872(SB)/8, $0x3FF0000000000000
DATA spdata<>+880(SB)/8, $0x3FF0000000000000
DATA spdata<>+888(SB)/8, $0x3FF0000000000000
DATA spdata<>+896(SB)/8, $0x3FE0000000000000
DATA spdata<>+904(SB)/8, $0x3FE0000000000000
DATA spdata<>+912(SB)/8, $0x3FE0000000000000
DATA spdata<>+920(SB)/8, $0x3FE0000000000000
DATA spdata<>+928(SB)/8, $0x0010000000000000
DATA spdata<>+936(SB)/8, $0x0010000000000000
DATA spdata<>+944(SB)/8, $0x0010000000000000
DATA spdata<>+952(SB)/8, $0x0010000000000000
DATA spdata<>+960(SB)/8, $0x4330000000000000
DATA spdata<>+968(SB)/8, $0x4330000000000000
DATA spdata<>+976(SB)/8, $0x4330000000000000
DATA spdata<>+984(SB)/8, $0x4330000000000000
DATA spdata<>+992(SB)/8, $1023.0
DATA spdata<>+1000(SB)/8, $1023.0
DATA spdata<>+1008(SB)/8, $1023.0
DATA spdata<>+1016(SB)/8, $1023.0
DATA spdata<>+1024(SB)/8, $35.0
DATA spdata<>+1032(SB)/8, $35.0
DATA spdata<>+1040(SB)/8, $35.0
DATA spdata<>+1048(SB)/8, $35.0
DATA spdata<>+1056(SB)/8, $-35.0
DATA spdata<>+1064(SB)/8, $-35.0
DATA spdata<>+1072(SB)/8, $-35.0
DATA spdata<>+1080(SB)/8, $-35.0
DATA spdata<>+1088(SB)/8, $0.66666666666666666
DATA spdata<>+1096(SB)/8, $0.66666666666666666
DATA spdata<>+1104(SB)/8, $0.66666666666666666
DATA spdata<>+1112(SB)/8, $0.66666666666666666
DATA spdata<>+1120(SB)/8, $-708.0
DATA spdata<>+1128(SB)/8, $-708.0
DATA spdata<>+1136(SB)/8, $-708.0
DATA spdata<>+1144(SB)/8, $-708.0
DATA spdata<>+1152(SB)/8, $709.0
DATA spdata<>+1160(SB)/8, $709.0
DATA spdata<>+1168(SB)/8, $709.0
DATA spdata<>+1176(SB)/8, $709.0
DATA spdata<>+1184(SB)/8, $-40.0
DATA spdata<>+1192(SB)/8, $-40.0
DATA spdata<>+1200(SB)/8, $-40.0
DATA spdata<>+1208(SB)/8, $-40.0
GLOBL spdata<>+0(SB), RODATA, $1216

#define LOG2E spdata<>+0(SB)
#define LN2U spdata<>+32(SB)
#define LN2L spdata<>+64(SB)
#define SIXTEENTH spdata<>+96(SB)
#define EXPC8 spdata<>+128(SB)
#define EXPC7 spdata<>+160(SB)
#define EXPC6 spdata<>+192(SB)
#define EXPC5 spdata<>+224(SB)
#define EXPC4 spdata<>+256(SB)
#define EXPC3 spdata<>+288(SB)
#define HALF spdata<>+320(SB)
#define ONE spdata<>+352(SB)
#define TWO spdata<>+384(SB)
#define BIASQ spdata<>+416(SB)
#define SQRT2M1 spdata<>+448(SB)
#define SMALL spdata<>+480(SB)
#define LN2HI spdata<>+512(SB)
#define LN2LO spdata<>+544(SB)
#define LP1 spdata<>+576(SB)
#define LP2 spdata<>+608(SB)
#define LP3 spdata<>+640(SB)
#define LP4 spdata<>+672(SB)
#define LP5 spdata<>+704(SB)
#define LP6 spdata<>+736(SB)
#define LP7 spdata<>+768(SB)
#define MANTMASK spdata<>+800(SB)
#define SQRT2MANT spdata<>+832(SB)
#define EXPF1 spdata<>+864(SB)
#define EXPFHALF spdata<>+896(SB)
#define IMPBIT spdata<>+928(SB)
#define MAGIC52 spdata<>+960(SB)
#define C1023 spdata<>+992(SB)
#define P35 spdata<>+1024(SB)
#define N35 spdata<>+1056(SB)
#define TWOTHIRD spdata<>+1088(SB)
#define ENVLO spdata<>+1120(SB)
#define ENVHI spdata<>+1152(SB)
#define CUTOFF spdata<>+1184(SB)

// EXPBODY computes e = exp(x) for the quad x in Y0 (left intact) into eout,
// replicating math.archExp's FMA path. Clobbers Y1-Y5, X6.
#define EXPBODY(eout) \
	VMULPD LOG2E, Y0, Y1;          \ // x * log2(e)
	VCVTPD2DQY Y1, X6;             \ // n = round-to-nearest (per MXCSR), as the scalar CVTSD2SL
	VCVTDQ2PD X6, Y3;              \ // float64(n)
	VMOVAPD Y0, Y1;                \ // r = x
	VFNMADD231PD LN2U, Y3, Y1;     \ // r -= n*LN2U
	VFNMADD231PD LN2L, Y3, Y1;     \ // r -= n*LN2L
	VMULPD SIXTEENTH, Y1, Y1;      \ // r *= 0.0625
	VMOVUPD EXPC8, Y4;             \
	VFMADD213PD EXPC7, Y1, Y4;     \ // u = u*r + c7
	VFMADD213PD EXPC6, Y1, Y4;     \
	VFMADD213PD EXPC5, Y1, Y4;     \
	VFMADD213PD EXPC4, Y1, Y4;     \
	VFMADD213PD EXPC3, Y1, Y4;     \
	VFMADD213PD HALF, Y1, Y4;      \
	VFMADD213PD ONE, Y1, Y4;       \ // u = u*r + 1.0
	VMULPD Y4, Y1, Y1;             \ // r *= u
	VADDPD TWO, Y1, Y4;            \ // u = r + 2
	VMULPD Y4, Y1, Y1;             \ // r *= u (×4 squaring steps: r was scaled by 1/16)
	VADDPD TWO, Y1, Y4;            \
	VMULPD Y4, Y1, Y1;             \
	VADDPD TWO, Y1, Y4;            \
	VMULPD Y4, Y1, Y1;             \
	VADDPD TWO, Y1, Y4;            \
	VFMADD213PD ONE, Y4, Y1;       \ // r = r*u + 1.0
	VPMOVSXDQ X6, Y5;              \ // int64(n)
	VPADDQ BIASQ, Y5, Y5;          \ // biased exponent (in (0, 0x7FF) inside the envelope)
	VPSLLQ $52, Y5, Y5;            \ // bits of 2**n
	VMULPD Y5, Y1, eout              // e = r * 2**n

// LOG1PBODY computes softplus from e (read-only) and x at xoff(SI),
// storing the result to xoff(DI): the FDLIBM log1p with plain packed
// mul/add/div (no FMA contraction — the scalar code has none), then the
// ±35 clamp blends. Clobbers Y0-Y11, Y14. Y15 must hold 1.0.
#define LOG1PBODY(e, xoff) \
	VADDPD Y15, e, Y2;             \ // u = 1 + e
	VPSRLQ $52, Y2, Y3;            \ // biased exponent of u (u >= 1 on live lanes)
	VPOR MAGIC52, Y3, Y3;          \ // bits of 2**52 + bexp
	VSUBPD MAGIC52, Y3, Y3;        \ // (MAGIC52 is also the double 2**52)
	VSUBPD C1023, Y3, Y3;          \ // kd = float64(k), exact
	VCMPPD $0x1D, ONE, Y3, Y4;     \ // kpos: kd >= 1.0  <=>  scalar k > 0
	VSUBPD e, Y2, Y5;              \ // u - e
	VSUBPD Y5, Y15, Y5;            \ // c (k>0 form): 1 - (u-e)
	VSUBPD ONE, Y2, Y6;            \ // u - 1
	VSUBPD Y6, e, Y6;              \ // c (k==0 form): e - (u-1)
	VBLENDVPD Y4, Y5, Y6, Y5;      \
	VDIVPD Y2, Y5, Y5;             \ // c /= u
	VPAND MANTMASK, Y2, Y6;        \ // m: mantissa field of u
	VMOVDQU SQRT2MANT, Y7;         \
	VPCMPGTQ Y6, Y7, Y7;           \ // lowmant: m < sqrt2's mantissa
	VANDNPD ONE, Y7, Y8;           \
	VADDPD Y8, Y3, Y3;             \ // kd++ on the high-mantissa lanes (scalar k++)
	VPOR EXPF1, Y6, Y8;            \ // u normalized to [1, sqrt2)
	VPOR EXPFHALF, Y6, Y9;         \ // u normalized to [sqrt2/2, 1)
	VBLENDVPD Y7, Y8, Y9, Y8;      \
	VMOVDQU IMPBIT, Y9;            \
	VPSUBQ Y6, Y9, Y9;             \ // implicit bit - m
	VPSRLQ $2, Y9, Y9;             \
	VBLENDVPD Y7, Y6, Y9, Y9;      \ // iu: scalar's masked mantissa after normalization
	VPXOR Y10, Y10, Y10;           \
	VPCMPEQQ Y10, Y9, Y9;          \ // iu0: iu == 0 (f fits the quadratic shortcut)
	VSUBPD ONE, Y8, Y8;            \ // f = u - 1
	VCMPPD $1, SQRT2M1, e, Y10;    \ // e < Sqrt2M1: scalar's shortcut branch (f = e, k = 0)
	VBLENDVPD Y10, e, Y8, Y8;      \ // f = e on those lanes (their kd is already 0)
	VPXOR Y10, Y10, Y10;           \
	VCMPPD $0, Y10, Y3, Y10;       \ // kz: final k == 0 — selects the no-c result forms
	VANDNPD Y5, Y10, Y5;           \ // c = 0 on k==0 lanes (scalar never reads c there)
	VMULPD HALF, Y8, Y2;           \
	VMULPD Y8, Y2, Y2;             \ // hfsq = (0.5*f)*f
	VADDPD TWO, Y8, Y4;            \
	VDIVPD Y4, Y8, Y4;             \ // s = f/(2+f)
	VMULPD Y4, Y4, Y6;             \ // z = s*s
	VMOVUPD LP7, Y7;               \
	VMULPD Y6, Y7, Y7;             \
	VADDPD LP6, Y7, Y7;            \ // Lp6 + z*Lp7
	VMULPD Y6, Y7, Y7;             \
	VADDPD LP5, Y7, Y7;            \
	VMULPD Y6, Y7, Y7;             \
	VADDPD LP4, Y7, Y7;            \
	VMULPD Y6, Y7, Y7;             \
	VADDPD LP3, Y7, Y7;            \
	VMULPD Y6, Y7, Y7;             \
	VADDPD LP2, Y7, Y7;            \
	VMULPD Y6, Y7, Y7;             \
	VADDPD LP1, Y7, Y7;            \
	VMULPD Y6, Y7, Y7;             \ // R = z*(Lp1 + z*(...))
	VADDPD Y7, Y2, Y6;             \ // hfsq + R
	VMULPD Y6, Y4, Y6;             \ // s*(hfsq+R)
	VSUBPD Y6, Y2, Y11;            \
	VSUBPD Y11, Y8, Y11;           \ // k==0 result: f - (hfsq - s*(hfsq+R))
	VMULPD LN2LO, Y3, Y0;          \ // kd*Ln2Lo
	VADDPD Y5, Y0, Y0;             \ // kd*Ln2Lo + c
	VADDPD Y0, Y6, Y0;             \ // s*(hfsq+R) + (kd*Ln2Lo + c)
	VSUBPD Y0, Y2, Y0;             \ // hfsq - (...)
	VSUBPD Y8, Y0, Y0;             \ // (...) - f
	VMULPD LN2HI, Y3, Y1;          \ // kd*Ln2Hi
	VSUBPD Y0, Y1, Y0;             \ // k>0 result: kd*Ln2Hi - (...)
	VMULPD TWOTHIRD, Y8, Y6;       \ // iu==0 shortcut, both sub-branches:
	VSUBPD Y6, Y15, Y6;            \
	VMULPD Y6, Y2, Y6;             \ // R2 = hfsq*(1 - (2/3)*f)
	VMULPD LN2LO, Y3, Y4;          \
	VADDPD Y4, Y5, Y4;             \ // c + kd*Ln2Lo
	VADDPD Y4, Y1, Y4;             \ // f==0 result: kd*Ln2Hi + (c + kd*Ln2Lo)
	VMULPD LN2LO, Y3, Y2;          \
	VADDPD Y5, Y2, Y2;             \ // kd*Ln2Lo + c
	VSUBPD Y2, Y6, Y2;             \ // R2 - (...)
	VSUBPD Y8, Y2, Y2;             \ // (...) - f
	VSUBPD Y2, Y1, Y2;             \ // f!=0 result: kd*Ln2Hi - (...)
	VPXOR Y6, Y6, Y6;              \
	VCMPPD $0, Y6, Y8, Y6;         \ // f == 0
	VBLENDVPD Y6, Y4, Y2, Y2;      \
	VBLENDVPD Y9, Y2, Y0, Y0;      \ // resolve in scalar priority order (later blends win):
	VBLENDVPD Y10, Y11, Y0, Y0;    \ // k==0 main result over the k>0 one
	VCMPPD $1, SMALL, e, Y2;       \ // e < Small
	VMULPD e, e, Y4;               \
	VMULPD HALF, Y4, Y4;           \
	VSUBPD Y4, e, Y4;              \ // e - (e*e)*0.5
	VBLENDVPD Y2, Y4, Y0, Y0;      \
	VMOVUPD xoff(SI), Y14;         \ // x
	VCMPPD $1, N35, Y14, Y2;       \ // x < -35: softplus(x) = exp(x)
	VBLENDVPD Y2, e, Y0, Y0;       \
	VCMPPD $0x1E, P35, Y14, Y2;    \ // x > 35: softplus(x) = x
	VBLENDVPD Y2, Y14, Y0, Y0;     \
	VMOVUPD Y0, xoff(DI)

// ENVOUT ORs into R8 the lane mask of the quad x in Y0 that lies outside
// the envelope: !(x > -708) || !(x < 709), so NaN counts as outside.
// Clobbers Y1, Y2, AX.
#define ENVOUT \
	VCMPPD $0x1A, ENVLO, Y0, Y1;   \ // NGT_UQ: !(x > -708)
	VCMPPD $0x15, ENVHI, Y0, Y2;   \ // NLT_UQ: !(x < 709)
	VORPD Y2, Y1, Y1;              \
	VMOVMSKPD Y1, AX;              \
	ORQ AX, R8

// func spAVX2(dst, src *float64, n int) (rescue bool)
// n must be a positive multiple of 4. Quads are processed two at a time in
// phase order (exp A, exp B, log1p A, log1p B): the two dependency chains
// are independent, so the out-of-order core overlaps them — one quad alone
// leaves the floating-point units half idle on its long serial chain.
// rescue reports whether any lane lies outside the envelope.
TEXT ·spAVX2(SB), NOSPLIT, $0-25
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ R8, R8      // out-of-envelope lanes seen so far
	VMOVUPD ONE, Y15 // 1.0, loop-invariant (needed in non-foldable positions)

loop8:
	CMPQ CX, $8
	JL tail4
	VMOVUPD 0(SI), Y0
	ENVOUT
	EXPBODY(Y13)
	VMOVUPD 32(SI), Y0
	ENVOUT
	EXPBODY(Y12)
	LOG1PBODY(Y13, 0)
	LOG1PBODY(Y12, 32)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JMP loop8

tail4:
	CMPQ CX, $4
	JL done
	VMOVUPD 0(SI), Y0
	ENVOUT
	EXPBODY(Y13)
	LOG1PBODY(Y13, 0)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP tail4

done:
	TESTQ R8, R8
	SETNE rescue+24(FP)
	VZEROUPPER
	RET

// ADDLANE folds lane e (low double of the XMM register) into the sum in X8
// by the scalar rule: when bit lane of DX marks a new maximum, the sum is
// rescaled and gains the new maximum's own 1 (sum = sum*e, then sum+1);
// otherwise e adds to it. add and end are the expansion's own labels.
#define ADDLANE(e, lane, add, end) \
	BTQ $lane, DX;                 \
	JCC add;                       \
	VMULSD e, X8, X8;              \ // sum *= exp(M - l)
	VADDSD ONE, X8, X8;            \ // sum++
	JMP end;                       \
add:                               \
	VADDSD e, X8, X8;              \ // sum += exp(l - M)
end:

// func foldAVX2(means, coeffs, x, invs *float64, d, stride, b, nb int, maxLog, sum float64, l *[4]float64) (next int, maxOut, sumOut float64)
// The running log-sum-exp fold of GaussLogSumExp over the 4-component
// blocks [b, nb) from the running maximum maxLog. Per block, q_i =
// Σ_d ((x_d − m_di)·s_d)² accumulates dimension by dimension from 0 with
// plain packed sub/mul/mul/add (the scalar loop has no FMA contraction),
// and l_i = c_i − 0.5·q_i.
//
// A block with no l_i above the running maximum M (an ordered compare)
// adds e_i = exp(l_i − M) for the lanes with l_i − M > −40 (ordered: NaN
// drops) and +0 for the rest, one at a time in component order — the
// scalar fold's own additions, since adding +0 leaves a sum ≥ 0 as it is.
// Kept arguments lie in (−40, 0], inside the envelope.
//
// A block that holds a new maximum folds the same way lane by lane against
// the running maximum P_i before each lane (P_0 = M, P_i+1 = l_i when
// l_i > P_i, else P_i; VMAXSD picks exactly that): a lane with l_i > P_i
// rescales the sum by exp(P_i − l_i) and adds 1, any other adds as above.
// When a rescale argument is not inside the envelope — the block holds the
// first finite term (M = −∞) or a maximum 708 nats above the last — the
// call ends instead: next is the block's index, its log-terms go to l, and
// the Go caller folds it by the scalar rule with math.Exp. next = nb when
// every block folded; maxOut and sumOut are the running maximum and sum
// after the blocks before next.
//
// means is dimension-major with stride bytes per dimension row; coeffs and
// every means row cover the blocks.
TEXT ·foldAVX2(SB), NOSPLIT, $0-112
	MOVQ means+0(FP), SI
	MOVQ coeffs+8(FP), DI
	MOVQ x+16(FP), R11
	MOVQ invs+24(FP), R12
	MOVQ d+32(FP), R13
	MOVQ stride+40(FP), R14
	MOVQ b+48(FP), BX
	MOVQ nb+56(FP), CX
	VBROADCASTSD maxLog+64(FP), Y7
	VMOVSD sum+72(FP), X8

block:
	CMPQ BX, CX
	JGE done
	MOVQ BX, R8
	SHLQ $5, R8           // byte offset of the block's first component
	VXORPD Y9, Y9, Y9     // q = 0
	TESTQ R13, R13
	JEQ quad
	LEAQ (SI)(R8*1), R9   // dimension 0's row at this block
	XORQ R10, R10

dim:
	VBROADCASTSD (R11)(R10*8), Y10
	VSUBPD (R9), Y10, Y10  // x_d - m
	VBROADCASTSD (R12)(R10*8), Y14
	VMULPD Y14, Y10, Y10   // z = (x_d - m) * s_d
	VMULPD Y10, Y10, Y10   // z * z
	VADDPD Y10, Y9, Y9     // q += z*z
	ADDQ R14, R9
	INCQ R10
	CMPQ R10, R13
	JLT dim

quad:
	VMULPD HALF, Y9, Y9
	VMOVUPD (DI)(R8*1), Y11
	VSUBPD Y9, Y11, Y11     // l = c - 0.5*q
	VCMPPD $0x1E, Y7, Y11, Y12 // GT_OQ: l > M
	VMOVMSKPD Y12, AX
	TESTQ AX, AX
	JNE record              // a new maximum in this block
	VSUBPD Y7, Y11, Y0      // arg = l - M
	VCMPPD $0x1E, CUTOFF, Y0, Y12 // GT_OQ: arg > -40
	VMOVMSKPD Y12, AX
	TESTQ AX, AX
	JEQ next                // every lane dropped: the sum is unchanged
	EXPBODY(Y13)
	VANDPD Y12, Y13, Y13    // +0 on the dropped lanes
	VADDSD X13, X8, X8      // sum += e_0
	VPERMILPD $1, X13, X14
	VADDSD X14, X8, X8      // sum += e_1
	VEXTRACTF128 $1, Y13, X13
	VADDSD X13, X8, X8      // sum += e_2
	VPERMILPD $1, X13, X14
	VADDSD X14, X8, X8      // sum += e_3

next:
	INCQ BX
	JMP block

record:
	VPERMILPD $1, X11, X1      // l_1
	VEXTRACTF128 $1, Y11, X2   // l_2
	VPERMILPD $1, X2, X3       // l_3
	VMAXSD X7, X11, X12        // P_1 = l_0 > M ? l_0 : M
	VMAXSD X12, X1, X13        // P_2
	VMAXSD X13, X2, X14        // P_3
	VMAXSD X14, X3, X15        // the block's last running maximum
	VUNPCKLPD X12, X7, X0
	VUNPCKLPD X14, X13, X1
	VINSERTF128 $1, X1, Y0, Y0 // P = (M, P_1, P_2, P_3)
	VCMPPD $0x1E, Y0, Y11, Y12 // GT_OQ: lane i is a new maximum
	VSUBPD Y11, Y0, Y1         // rescale argument P - l
	VSUBPD Y0, Y11, Y2         // additive argument l - P
	VCMPPD $0x1A, ENVLO, Y1, Y3 // NGT_UQ: !(P - l > -708)
	VANDPD Y12, Y3, Y3
	VMOVMSKPD Y3, AX
	TESTQ AX, AX
	JNE scalar                 // a rescale outside the envelope: Go's rule
	VMOVMSKPD Y12, DX
	VBLENDVPD Y12, Y1, Y2, Y0  // arg = new maximum ? P - l : l - P
	VCMPPD $0x1E, CUTOFF, Y2, Y12 // GT_OQ: l - P > -40, true on every new maximum
	EXPBODY(Y13)
	VANDPD Y12, Y13, Y13       // +0 on the dropped lanes
	VPERMILPD $1, X13, X14
	ADDLANE(X13, 0, add0, end0)
	ADDLANE(X14, 1, add1, end1)
	VEXTRACTF128 $1, Y13, X13
	VPERMILPD $1, X13, X14
	ADDLANE(X13, 2, add2, end2)
	ADDLANE(X14, 3, add3, end3)
	VBROADCASTSD X15, Y7       // M = the block's last running maximum
	INCQ BX
	JMP block

scalar:
	MOVQ l+80(FP), AX
	VMOVUPD Y11, (AX)

done:
	MOVQ BX, next+88(FP)
	VMOVSD X7, maxOut+96(FP)
	VMOVSD X8, sumOut+104(FP)
	VZEROUPPER
	RET
