package device

import (
	"math"

	"ecripse/internal/vecmath"
)

// ensureScratch sizes the softplus staging arrays for n lanes, reusing
// capacity. The scratch lives on the batch (one batch per device position
// per solver goroutine), so the hot path never allocates.
func (b *ResolvedBatch) ensureScratch(n int) {
	if cap(b.argF) < n {
		b.argF = make([]float64, n)
		b.argR = make([]float64, n)
		b.argO = make([]float64, n)
		b.spF = make([]float64, n)
		b.spR = make([]float64, n)
		b.spO = make([]float64, n)
		b.clm = make([]float64, n)
		b.neg = make([]bool, n)
	}
}

// idsLanes is the lane kernel behind StoreIds/AddIds. It evaluates exactly
// the Resolved.Ids arithmetic per lane, restructured into three passes so
// the transcendental work — softplus dominates the scalar profile — runs
// through the batched vecmath kernel:
//
//  1. per lane, reduce the bias point to the three softplus arguments
//     (forward and reverse ekvF inputs, and the overdrive input when
//     mobility degradation is on) plus the channel-length factor;
//  2. one vecmath.Softplus sweep per argument array;
//  3. per lane, square, combine and sign the current.
//
// Inactive lanes stage a dummy zero argument (the vector kernel computes
// all lanes regardless) and are skipped when writing out. Every lane's
// value stays bit-identical to Resolved.Ids — vecmath.Softplus is pinned
// bit-exact to the scalar softplus, and the surrounding arithmetic is
// copied expression for expression — which TestResolvedBatchMatchesResolved
// and FuzzResolvedBatchIds verify.
func (b *ResolvedBatch) idsLanes(vg float64, vd []float64, vs, vb float64, active []bool, out []float64, add bool) {
	n := len(vd)
	// The softplus sweeps run over n padded to a multiple of the vector
	// kernel's width, so a remainder chunk's last 1–3 lanes never drop to
	// the scalar tail; the pad lanes stage the same dummy zero argument as
	// inactive ones and are never read back.
	np := (n + 3) &^ 3
	b.ensureScratch(np)
	pmos := b.pol == PMOS
	g, s0, bb := vg, vs, vb
	if pmos {
		// A PMOS is an NMOS in the mirrored voltage space. The uniform
		// terminals mirror once here; vd mirrors per lane below.
		g, s0, bb = -g, -s0, -bb
	}
	useTheta := b.theta > 0
	argF, argR, argO := b.argF[:np], b.argR[:np], b.argO[:np]
	clm, neg := b.clm[:n], b.neg[:n]
	for l := 0; l < n; l++ {
		if active != nil && !active[l] {
			argF[l], argR[l], argO[l] = 0, 0, 0
			continue
		}
		dd, s := vd[l], s0
		if pmos {
			dd = -dd
		}
		// Source/drain symmetry by swap-and-negate, as in Resolved.idsN.
		nl := false
		if dd < s {
			dd, s = s, dd
			nl = true
		}
		neg[l] = nl
		vds := dd - s

		vsb := s - bb
		var vt float64
		if vsb == 0 && b.fastVsb0 {
			vt = b.vt0[l] - b.dibl*vds - b.tcvTerm
		} else {
			arg := b.phi + vsb
			if arg < argFloor {
				arg = argFloor * math.Exp((arg-argFloor)/argFloor)
			}
			vt = b.vt0[l] + b.gamma*(math.Sqrt(arg)-b.sqrtPhi) - b.dibl*vds - b.tcvTerm
		}

		vp := (g - bb - vt) / b.slope
		uf := (vp - (s - bb)) / b.ut
		ur := (vp - (dd - bb)) / b.ut
		argF[l] = uf / 2 // ekvF halves its argument before softplus
		argR[l] = ur / 2
		argO[l] = uf
		clm[l] = 1 + b.lambda*vds
	}
	for l := n; l < np; l++ {
		argF[l], argR[l], argO[l] = 0, 0, 0
	}

	vecmath.Softplus(b.spF[:np], argF)
	vecmath.Softplus(b.spR[:np], argR)
	if useTheta {
		vecmath.Softplus(b.spO[:np], argO)
	}

	for l := 0; l < n; l++ {
		if active != nil && !active[l] {
			continue
		}
		sf, sr := b.spF[l], b.spR[l]
		fwd := sf * sf // ekvF squares the softplus
		rev := sr * sr
		deg := 1.0
		if useTheta {
			od := b.slopeUt * b.spO[l]
			deg = 1 / (1 + b.theta*od)
		}
		cur := b.ispec * (fwd - rev) * clm[l] * deg
		if neg[l] {
			cur = -cur
		}
		if pmos {
			cur = -cur
		}
		if add {
			out[l] += cur
		} else {
			out[l] = cur
		}
	}
}
