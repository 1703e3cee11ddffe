package sram

import "sync"

// batchScratch carries every buffer one lockstep margin chunk needs. Pooled
// so the batch hot path — called from many goroutines at the engine's batch
// barriers — allocates nothing per chunk.
type batchScratch struct {
	shiftBuf     []float64
	half         halfCellBatch
	lanes        []vtcLane
	x, f         []float64 // per-lane evaluation point and residual
	active       []bool
	in           []float64
	rowsA, rowsB []float64 // grid-major: rows[i*lanes+l]
	aOut, bOut   []float64 // per-lane gather for the rotation step
	ra, rb       rotCurve
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func (st *batchScratch) resize(lanes, gridN int) {
	pts := gridN + 1
	if cap(st.lanes) < lanes {
		st.lanes = make([]vtcLane, lanes)
	}
	st.lanes = st.lanes[:lanes]
	st.x = growF(st.x, lanes)
	st.f = growF(st.f, lanes)
	st.active = growB(st.active, lanes)
	st.in = growF(st.in, pts)
	st.rowsA = growF(st.rowsA, pts*lanes)
	st.rowsB = growF(st.rowsB, pts*lanes)
	st.aOut = growF(st.aOut, pts)
	st.bOut = growF(st.bOut, pts)
	st.ra.u, st.ra.w = growF(st.ra.u, pts), growF(st.ra.w, pts)
	st.rb.u, st.rb.w = growF(st.rb.u, pts), growF(st.rb.w, pts)
}

// NoiseMarginBatch computes NoiseMargin for every shift vector in shs,
// writing out[i] for shs[i]. Batches wider than opts.Lanes (default 64) are
// processed in lockstep chunks of that width. Every result is bit-identical
// to the scalar NoiseMargin on the same shifts — the batch exists purely
// for throughput: each residual round of the root solver evaluates all live
// lanes in one structure-of-arrays pass instead of one latency chain per
// sample. Safe for concurrent use; all working memory comes from a pool.
func (c *Cell) NoiseMarginBatch(shs []Shifts, out []SNMResult, opts *SNMOptions) {
	if len(out) < len(shs) {
		panic("sram: NoiseMarginBatch output shorter than input")
	}
	var o SNMOptions
	if opts != nil {
		o = *opts
	}
	o.fill()
	// Fill the solver options exactly once; every chunk and both curve
	// sweeps share the same filled copy.
	vo := o.vtcOptions(c.Vdd)

	st := batchPool.Get().(*batchScratch)
	for start := 0; start < len(shs); start += o.Lanes {
		end := start + o.Lanes
		if end > len(shs) {
			end = len(shs)
		}
		chunk := shs[start:end]
		w := len(chunk)
		st.resize(w, o.GridN)
		c.readVTCLanes(Right, chunk, o.GridN, &vo, st, st.in, st.rowsA)
		c.readVTCLanes(Left, chunk, o.GridN, &vo, st, st.in, st.rowsB)
		// Seevinck rotation and lobe extraction are per-lane and cheap
		// relative to the solves; reuse the scalar helpers on gathered
		// columns. Both sweeps share the identical input grid.
		for l := 0; l < w; l++ {
			for i := 0; i <= o.GridN; i++ {
				st.aOut[i] = st.rowsA[i*w+l]
				st.bOut[i] = st.rowsB[i*w+l]
			}
			rotateCurves(st.in, st.aOut, st.in, st.bOut, st.ra, st.rb)
			out[start+l] = marginFromRot(st.ra, st.rb)
		}
	}
	batchPool.Put(st)
}

// FailsBatch evaluates the failure indicator for every shift vector in shs
// via the batch kernel; out[i] reports whether shs[i] fails.
func (c *Cell) FailsBatch(shs []Shifts, out []bool, res []SNMResult, opts *SNMOptions) {
	c.NoiseMarginBatch(shs, res, opts)
	for i := range shs {
		out[i] = res[i].Fails()
	}
}
