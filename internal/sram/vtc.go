package sram

import (
	"math"

	"ecripse/internal/device"
)

// Side selects one half of the symmetric cell.
type Side int

const (
	// Left is the half whose output is node V1 (devices L1, D1, A1).
	Left Side = iota
	// Right is the half whose output is node V2 (devices L2, D2, A2).
	Right
)

func (s Side) devices() (load, driver, access int) {
	if s == Left {
		return L1, D1, A1
	}
	return L2, D2, A2
}

// VTCOptions controls the half-cell solver.
//
// WordLine and BitLine default to Vdd (the read condition) when left at
// their zero value. A genuine 0 V bias is expressed either by setting the
// matching *Set flag or by passing NaN (both mean "this zero is explicit,
// not unset"); a bare WordLine: 0 keeps its historical default-to-Vdd
// meaning so zero-valued options stay the read condition.
type VTCOptions struct {
	BisectIter  int     // root-search iteration cap (default 40)
	WordLine    float64 // WL voltage; defaults to Vdd unless WordLineSet (NaN = explicit 0)
	BitLine     float64 // BL voltage; defaults to Vdd unless BitLineSet (NaN = explicit 0)
	WordLineSet bool    // treat WordLine as explicit even when it is 0
	BitLineSet  bool    // treat BitLine as explicit even when it is 0
	AccessOff   bool    // true for the hold condition (WL = 0)

	// Telemetry optionally accumulates root-solve effort counters.
	Telemetry *SolveTelemetry
}

func (o *VTCOptions) fill(vdd float64) {
	if o.BisectIter == 0 {
		o.BisectIter = 40
	}
	if math.IsNaN(o.WordLine) {
		o.WordLine, o.WordLineSet = 0, true
	}
	if math.IsNaN(o.BitLine) {
		o.BitLine, o.BitLineSet = 0, true
	}
	if o.WordLine == 0 && !o.WordLineSet && !o.AccessOff {
		o.WordLine = vdd
	}
	if o.BitLine == 0 && !o.BitLineSet {
		o.BitLine = vdd
	}
	if o.AccessOff {
		o.WordLine = 0
	}
}

// halfCell is the resolved device triple of one cell half with shifts
// applied and every derived device constant precomputed, hoisted out of
// the root-search inner loop.
type halfCell struct {
	load, driver, access device.Resolved
	vdd, wl, bl          float64
}

func (c *Cell) half(side Side, sh Shifts, o *VTCOptions) halfCell {
	li, di, ai := side.devices()
	load := c.shifted(li, sh[li])
	driver := c.shifted(di, sh[di])
	access := c.shifted(ai, sh[ai])
	return halfCell{
		load:   load.Resolve(),
		driver: driver.Resolve(),
		access: access.Resolve(),
		vdd:    c.Vdd,
		wl:     o.WordLine,
		bl:     o.BitLine,
	}
}

// current returns the net current leaving the output node held at voltage v
// with the opposite storage node (the gate input) at vin. It is strictly
// increasing in v: every device contributes non-negative conductance.
func (h *halfCell) current(vin, v float64) float64 {
	// Driver NMOS: gate=vin, drain=v, source=gnd.
	iDrv := h.driver.Ids(vin, v, 0, 0)
	// Load PMOS: gate=vin, drain=v, source=bulk=Vdd.
	iLoad := h.load.Ids(vin, v, h.vdd, h.vdd)
	// Access NMOS: gate=WL, between node and bit line, bulk=gnd.
	iAcc := h.access.Ids(h.wl, v, h.bl, 0)
	return iDrv + iLoad + iAcc
}

// Root-solve tolerances. solveXtol bounds the bracket width of both
// solvers. solve's residual early exit accepts a root once |f| falls below
// solveFtolRel times the entry bracket's residual scale (the relative form
// matters: the KCL residual spans microamps at nominal supply down to
// picoamps in a data-retention search at tens of millivolts). The VTC
// sweep's continuation stops instead once a secant step is shorter than
// solveStepTol: the secant converges superlinearly, so the point it stops
// on is far closer to the root than the step, and no residual threshold
// has to be scaled to the curve.
const (
	solveXtol    = 1e-10
	solveFtolRel = 1e-6
	solveStepTol = 1e-8
)

// solve finds the output voltage root of current(vin, ·) within [lo, hi]
// using the Illinois variant of regula falsi (superlinear on this smooth
// monotone residual), falling back to plain bisection steps whenever the
// interpolated point stalls. It serves the solves that have no neighbouring
// grid point to continue from (HalfVTC, leakage, the N-curve); the VTC
// sweeps use vtcLane. The second return is the number of residual
// evaluations beyond the two bracket-entry ones — bracket-expansion steps
// plus iteration-loop steps.
func (h *halfCell) solve(vin, lo, hi float64, maxIter int) (float64, int) {
	flo := h.current(vin, lo)
	fhi := h.current(vin, hi)
	iters := 0
	// Expand the bracket in the rare case the root is outside.
	for k := 0; flo > 0 && k < 8; k++ {
		lo -= 0.2
		flo = h.current(vin, lo)
		iters++
	}
	for k := 0; fhi < 0 && k < 8; k++ {
		hi += 0.2
		fhi = h.current(vin, hi)
		iters++
	}
	if flo > 0 || fhi < 0 {
		// Degenerate bias: return the end with the smaller |residual|.
		if math.Abs(flo) < math.Abs(fhi) {
			return lo, iters
		}
		return hi, iters
	}
	ftol := solveFtolRel * math.Max(-flo, fhi)
	if flo >= -ftol {
		return lo, iters
	}
	if fhi <= ftol {
		return hi, iters
	}

	side := 0
	for i := 0; i < maxIter && hi-lo > solveXtol; i++ {
		var mid float64
		if fhi != flo {
			mid = lo - flo*(hi-lo)/(fhi-flo)
		}
		// Keep the step inside the bracket; degrade to bisection otherwise.
		if !(mid > lo && mid < hi) {
			mid = 0.5 * (lo + hi)
		}
		fm := h.current(vin, mid)
		iters++
		if fm >= -ftol && fm <= ftol {
			return mid, iters
		}
		if fm > 0 {
			hi, fhi = mid, fm
			if side == +1 {
				flo *= 0.5 // Illinois trick: avoid endpoint stagnation
			}
			side = +1
		} else {
			lo, flo = mid, fm
			if side == -1 {
				fhi *= 0.5
			}
			side = -1
		}
	}
	return 0.5 * (lo + hi), iters
}

// vtcLane is one curve's state in the continuation sweep along the input
// grid: the roots of the two previous grid points, the residual slope
// carried from the last one, and the secant iteration of the current
// point. The scalar sweep (readVTCInto) and the lockstep sweep
// (readVTCLanes) drive the same methods — startPoint, then observe on the
// residual at next until done — so every lane performs exactly the
// arithmetic of the scalar solve, NaN residuals included.
//
// Each point starts from the straight-line extrapolation 2·r(i−1) − r(i−2)
// (r(−1) = r(−2) = Vdd, so point 0 starts at Vdd) and takes its first step
// with the carried slope; point 0, with no slope yet, probes 10 mV toward
// the root. Secant steps follow. The bracket [−0.2 V, r(i−1) + 1 µV] comes
// from the residual's monotonicity (it rises with v and with vin, so the
// root cannot exceed the previous one), its ends' signs are assumed rather
// than evaluated, and every evaluation narrows it by its sign.
type vtcLane struct {
	r1, r2   float64 // roots at grid points i−1 and i−2
	slope    float64 // ∂f/∂v estimate from the last point's final secant pair
	hasSlope bool

	lo, hi     float64 // bracket: f(lo) < 0 < f(hi)
	loOK, hiOK bool    // the end's sign was evaluated, not assumed
	x, f       float64 // the last evaluation
	xp, fp     float64 // the one before it
	next       float64 // where the next residual is evaluated
	evals      int     // residual evaluations at the current point
	exited     bool    // a step already left through an assumed end
	done       bool
}

// begin resets the lane for a new sweep on a supply of vdd.
func (s *vtcLane) begin(vdd float64) {
	*s = vtcLane{r1: vdd, r2: vdd}
}

// startPoint opens the next grid point's solve.
func (s *vtcLane) startPoint() {
	s.lo, s.hi = -0.2, s.r1+1e-6
	s.loOK, s.hiOK = false, false
	s.evals, s.done, s.exited = 0, false, false
	x0 := 2*s.r1 - s.r2
	if !(x0 > s.lo && x0 < s.hi) {
		x0 = 0.5 * (s.lo + s.hi)
	}
	s.next = x0
}

// observe takes the residual f at s.next and either places the next
// evaluation or finishes the point (s.done, root in s.r1). maxIter caps the
// evaluations per point.
//
// A step that leaves the open bracket takes the bracket midpoint, and so
// does a NaN residual. Only the first step per point that leaves through
// an end whose sign was only assumed does so; a second one evaluates that
// end instead, so no root settles on an unverified end. An evaluated end
// with the wrong sign becomes the opposite end, and the bracket widens by
// 0.2 V past it, as in solve's expansion.
func (s *vtcLane) observe(f float64, maxIter int) {
	x := s.next
	s.xp, s.fp = s.x, s.f
	s.x, s.f = x, f
	s.evals++
	switch {
	case f > 0:
		s.hi, s.hiOK = x, true
		if !(s.lo < x) {
			s.lo = x - 0.2
		}
	case f < 0:
		s.lo, s.loOK = x, true
		if !(x < s.hi) {
			s.hi = x + 0.2
		}
	case f == 0:
		s.finish(x)
		return
	}

	var nx float64
	switch {
	case f != f: // NaN: no step to take
		nx = math.NaN()
	case s.evals > 1:
		nx = x - f*(x-s.xp)/(f-s.fp)
	case s.hasSlope:
		nx = x - f/s.slope
	case f > 0:
		nx = x - 0.01
	default:
		nx = x + 0.01
	}
	verify := false
	if !(nx > s.lo && nx < s.hi) {
		pastHi, pastLo := nx >= s.hi && !s.hiOK, nx <= s.lo && !s.loOK
		switch {
		case s.exited && pastHi:
			nx, verify = s.hi, true
		case s.exited && pastLo:
			nx, verify = s.lo, true
		default:
			s.exited = s.exited || pastHi || pastLo
			nx = 0.5 * (s.lo + s.hi)
		}
	}
	// The first step rides on the carried slope, which can be stale by
	// orders of magnitude where a device turns off along the grid, so only
	// a secant step over this point's own evaluations may end the solve.
	if s.evals >= maxIter || !verify && (s.evals > 1 && math.Abs(nx-x) < solveStepTol || s.hi-s.lo < solveXtol) {
		s.finish(nx)
		return
	}
	s.next = nx
}

// finish records root as the current point's solution and carries the
// final secant pair's slope to the next point.
func (s *vtcLane) finish(root float64) {
	if s.evals > 1 {
		s.slope = (s.f - s.fp) / (s.x - s.xp)
		s.hasSlope = true
	}
	s.r2, s.r1 = s.r1, root
	s.done = true
}

// HalfVTC solves the half-cell output voltage for input vin.
func (c *Cell) HalfVTC(side Side, vin float64, sh Shifts, opts *VTCOptions) float64 {
	var o VTCOptions
	if opts != nil {
		o = *opts
	}
	o.fill(c.Vdd)
	h := c.half(side, sh, &o)
	v, iters := h.solve(vin, -0.2, c.Vdd+0.2, o.BisectIter)
	evals := int64(iters) + 2 // the bracket-entry pair
	o.Telemetry.add(1, evals)
	recordGlobal(1, evals)
	return v
}

// Curve is a sampled voltage-transfer characteristic: Out[i] is the output
// voltage at input In[i].
type Curve struct {
	In, Out []float64
}

// ReadVTC samples the half-cell read transfer curve on a uniform input grid
// of n+1 points spanning [0, Vdd]. The sweep continues each point's root
// from the previous two, and the previous root caps its bracket.
func (c *Cell) ReadVTC(side Side, sh Shifts, n int, opts *VTCOptions) Curve {
	if n < 2 {
		panic("sram: VTC grid too small")
	}
	var o VTCOptions
	if opts != nil {
		o = *opts
	}
	o.fill(c.Vdd)
	cur := Curve{In: make([]float64, n+1), Out: make([]float64, n+1)}
	c.readVTCInto(side, sh, n, &o, cur.In, cur.Out)
	return cur
}

// readVTCInto is the allocation-free core of ReadVTC: it fills the
// caller-provided in/out buffers (length n+1) from already-filled options.
// The indicator hot path calls it with pooled buffers. The sweep runs from
// vin = 0 to vin = Vdd by secant continuation (see vtcLane); every residual
// evaluation is billed as one iteration.
func (c *Cell) readVTCInto(side Side, sh Shifts, n int, o *VTCOptions, in, out []float64) {
	h := c.half(side, sh, o)
	var s vtcLane
	s.begin(c.Vdd)
	iters := int64(0)
	for i := 0; i <= n; i++ {
		vin := c.Vdd * float64(i) / float64(n)
		s.startPoint()
		for !s.done {
			s.observe(h.current(vin, s.next), o.BisectIter)
		}
		iters += int64(s.evals)
		in[i] = vin
		out[i] = s.r1
	}
	o.Telemetry.add(int64(n+1), iters)
	recordGlobal(int64(n+1), iters)
}
