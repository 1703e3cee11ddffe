package sram

import (
	"math"
	"sort"
	"sync"
)

// SNMOptions controls the butterfly sampling used for noise margins.
type SNMOptions struct {
	GridN      int  // VTC sample points per curve (default 64)
	BisectIter int  // residual evaluations per half-cell root solve, at most (default 40)
	Hold       bool // compute the hold margin (WL = 0) instead of read

	// Lanes is the lockstep width of NoiseMarginBatch: batches larger than
	// this are processed in chunks of Lanes shift vectors (default 64).
	// Pure grouping — results are bit-identical at any width.
	Lanes int

	// Telemetry optionally accumulates root-solve effort counters across
	// every margin evaluation that uses these options (safe to share
	// between goroutines; the counters are atomic).
	Telemetry *SolveTelemetry
}

// DefaultBatchLanes is the default lockstep width of NoiseMarginBatch: wide
// enough to keep late secant steps busy (lanes converge at different
// steps), narrow enough that the per-lane state stays L1-resident. See
// EXPERIMENTS.md for the width sweep behind the choice.
const DefaultBatchLanes = 64

func (o *SNMOptions) fill() {
	if o.GridN == 0 {
		o.GridN = 64
	}
	if o.BisectIter == 0 {
		o.BisectIter = 40
	}
	if o.Lanes == 0 {
		o.Lanes = DefaultBatchLanes
	}
}

// vtcOptions derives the filled half-cell solver options from the margin
// options. This is the single place SNM-level knobs map onto VTC-level
// ones — Butterfly, NoiseMargin and NoiseMarginBatch all go through it, so
// the scalar and batch paths cannot drift apart on defaults.
func (o *SNMOptions) vtcOptions(vdd float64) VTCOptions {
	vo := VTCOptions{BisectIter: o.BisectIter, AccessOff: o.Hold, Telemetry: o.Telemetry}
	vo.fill(vdd)
	return vo
}

// Sqrt2 is √2; SNM results are diagonal distances divided by this.
const sqrt2 = math.Sqrt2

// rotPoint maps a butterfly point (x, y) to the 45°-clockwise-rotated frame
// used by the Seevinck construction: u = (x−y)/√2 is the new abscissa and
// w = (x+y)/√2 the new ordinate.
func rotPoint(x, y float64) (u, w float64) {
	return (x - y) / sqrt2, (x + y) / sqrt2
}

// rotCurve holds a rotated curve sampled at increasing u.
type rotCurve struct {
	u, w []float64
}

// at linearly interpolates w(u); u must lie within the sampled range.
func (r rotCurve) at(u float64) float64 {
	i := sort.SearchFloat64s(r.u, u)
	if i == 0 {
		return r.w[0]
	}
	if i >= len(r.u) {
		return r.w[len(r.w)-1]
	}
	u0, u1 := r.u[i-1], r.u[i]
	if u1 == u0 {
		return r.w[i]
	}
	t := (u - u0) / (u1 - u0)
	return r.w[i-1]*(1-t) + r.w[i]*t
}

// SNMResult carries the two lobe margins of a butterfly plot. The cell's
// noise margin is the smaller lobe; a negative value means the butterfly has
// lost one of its eyes (the cell is monostable) and the sample fails.
type SNMResult struct {
	Lobe1, Lobe2 float64
}

// SNM returns the cell margin min(Lobe1, Lobe2).
func (r SNMResult) SNM() float64 { return math.Min(r.Lobe1, r.Lobe2) }

// Fails reports the paper's failure criterion: negative read margin.
func (r SNMResult) Fails() bool { return r.SNM() < 0 }

// Butterfly samples the two read (or hold) transfer curves of the cell under
// the given per-transistor threshold shifts.
//
// Curve A is V2 = fR(V1) (right half driven by node V1); curve B is
// V1 = fL(V2) plotted in the same (V1, V2) plane.
func (c *Cell) Butterfly(sh Shifts, opts *SNMOptions) (a, b Curve) {
	var o SNMOptions
	if opts != nil {
		o = *opts
	}
	o.fill()
	vo := o.vtcOptions(c.Vdd)
	a = c.ReadVTC(Right, sh, o.GridN, &vo)
	b = c.ReadVTC(Left, sh, o.GridN, &vo)
	return a, b
}

// snmScratch carries every buffer a NoiseMargin evaluation needs: the two
// sampled VTCs and their rotated forms. Pooled so the indicator hot path —
// millions of calls per estimate, from many goroutines — allocates nothing
// per call.
type snmScratch struct {
	aIn, aOut, bIn, bOut []float64
	ra, rb               rotCurve
}

var snmPool = sync.Pool{New: func() any { return new(snmScratch) }}

// growF resizes a float buffer to length n, reusing capacity when possible.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func (s *snmScratch) resize(n int) {
	s.aIn, s.aOut = growF(s.aIn, n), growF(s.aOut, n)
	s.bIn, s.bOut = growF(s.bIn, n), growF(s.bOut, n)
	s.ra.u, s.ra.w = growF(s.ra.u, n), growF(s.ra.w, n)
	s.rb.u, s.rb.w = growF(s.rb.u, n), growF(s.rb.w, n)
}

// NoiseMargin computes the static noise margin of the butterfly via the
// Seevinck rotation: in the 45°-rotated frame both curves are single-valued
// functions of u (a monotone-decreasing VTC has strictly increasing
// u = (x−y)/√2); the margin of each lobe is the extreme of the curve
// difference divided by √2. Safe for concurrent use; all working memory
// comes from a pool.
func (c *Cell) NoiseMargin(sh Shifts, opts *SNMOptions) SNMResult {
	var o SNMOptions
	if opts != nil {
		o = *opts
	}
	o.fill()
	vo := o.vtcOptions(c.Vdd)

	s := snmPool.Get().(*snmScratch)
	s.resize(o.GridN + 1)
	c.readVTCInto(Right, sh, o.GridN, &vo, s.aIn, s.aOut)
	c.readVTCInto(Left, sh, o.GridN, &vo, s.bIn, s.bOut)
	rotateCurves(s.aIn, s.aOut, s.bIn, s.bOut, s.ra, s.rb)
	res := marginFromRot(s.ra, s.rb)
	snmPool.Put(s)
	return res
}

// noiseMarginFromCurves is the allocating path over pre-sampled butterfly
// curves (kept for callers that already hold Curve values).
func noiseMarginFromCurves(a, b Curve) SNMResult {
	ra := rotCurve{u: make([]float64, len(a.In)), w: make([]float64, len(a.In))}
	rb := rotCurve{u: make([]float64, len(b.In)), w: make([]float64, len(b.In))}
	rotateCurves(a.In, a.Out, b.In, b.Out, ra, rb)
	return marginFromRot(ra, rb)
}

// rotateCurves fills ra/rb (pre-sized to the sample counts) with the
// Seevinck-rotated curves. Curve A: points (x=In, y=Out). Curve B: points
// (x=Out, y=In).
func rotateCurves(aIn, aOut, bIn, bOut []float64, ra, rb rotCurve) {
	for i := range aIn {
		ra.u[i], ra.w[i] = rotPoint(aIn[i], aOut[i])
	}
	for i := range bIn {
		// Reverse order so u increases: for curve B, u = (Out−In)/√2
		// decreases along the sweep.
		j := len(bIn) - 1 - i
		rb.u[i], rb.w[i] = rotPoint(bOut[j], bIn[j])
	}
	ensureIncreasing(ra)
	ensureIncreasing(rb)
}

func marginFromRot(ra, rb rotCurve) SNMResult {
	lo := math.Max(ra.u[0], rb.u[0])
	hi := math.Min(ra.u[len(ra.u)-1], rb.u[len(rb.u)-1])
	if !(hi > lo) {
		// Curves do not overlap in u at all: wildly broken sample.
		return SNMResult{Lobe1: -1, Lobe2: -1}
	}

	// Evaluate the difference on the union of both curves' sample points
	// (clipped to the overlap) — extremes of a piecewise-linear difference
	// occur at breakpoints. The two lobes live on opposite sides of the
	// butterfly diagonal V1 = V2, i.e. u < 0 and u > 0: lobe 1 (the eye with
	// V2 > V1) is the maximum of the difference at u ≤ 0, lobe 2 the
	// negated minimum at u ≥ 0. Splitting at a fixed u = 0 (instead of at a
	// curve crossing) is what lets a vanished eye come out *negative*: when
	// the cell has lost the V2 > V1 state, curve A runs below curve B for
	// all u < 0 and the lobe-1 value is the (negative) closest approach.
	max1, min2 := math.Inf(-1), math.Inf(1)
	scan := func(us []float64) {
		for _, u := range us {
			if u < lo || u > hi {
				continue
			}
			d := ra.at(u) - rb.at(u)
			if u <= 0 && d > max1 {
				max1 = d
			}
			if u >= 0 && d < min2 {
				min2 = d
			}
		}
	}
	scan(ra.u)
	scan(rb.u)
	// Always include the split point itself so neither side can be empty
	// when the overlap straddles zero.
	if lo <= 0 && hi >= 0 {
		d := ra.at(0) - rb.at(0)
		if d > max1 {
			max1 = d
		}
		if d < min2 {
			min2 = d
		}
	}
	if math.IsInf(max1, -1) { // overlap entirely at u > 0
		max1 = -(hi - lo)
	}
	if math.IsInf(min2, 1) { // overlap entirely at u < 0
		min2 = hi - lo
	}

	return SNMResult{Lobe1: max1 / sqrt2, Lobe2: -min2 / sqrt2}
}

// ensureIncreasing nudges any non-increasing u samples so interpolation is
// well-defined; VTC monotonicity makes violations vanishingly small (they
// arise only from bisection noise).
func ensureIncreasing(r rotCurve) {
	for i := 1; i < len(r.u); i++ {
		if r.u[i] <= r.u[i-1] {
			r.u[i] = r.u[i-1] + 1e-12
		}
	}
}

// ReadSNM is shorthand for the read noise margin under shifts sh.
func (c *Cell) ReadSNM(sh Shifts, opts *SNMOptions) float64 {
	return c.NoiseMargin(sh, opts).SNM()
}

// HoldSNM is the hold (retention) margin: the same construction with the
// access transistors off.
func (c *Cell) HoldSNM(sh Shifts, opts *SNMOptions) float64 {
	var o SNMOptions
	if opts != nil {
		o = *opts
	}
	o.Hold = true
	return c.NoiseMargin(sh, &o).SNM()
}

// Fails reports whether the cell with shifts sh violates the read-stability
// specification (negative RNM) — the indicator function I(x) of eq. (1).
func (c *Cell) Fails(sh Shifts, opts *SNMOptions) bool {
	return c.NoiseMargin(sh, opts).Fails()
}
