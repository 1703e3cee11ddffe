package sram

import "ecripse/internal/device"

// This file is the lockstep (structure-of-arrays) counterpart of vtc.go:
// the same continuation sweep, marched over a batch of shift vectors
// ("lanes") at once. Every lane runs its own vtcLane — the very methods the
// scalar sweep calls — and lanes that finish a grid point are masked out of
// the remaining residual rounds, never re-ordered, so results are pinned
// identical to the scalar path (see FuzzNoiseMarginBatch). The throughput
// win is that every residual round evaluates the KCL current of all live
// lanes in one pass over parallel float64 slices, turning the
// latency-bound exp/sqrt chain of a single secant step into independent
// per-lane work the CPU can overlap.

// halfCellBatch is the SoA counterpart of halfCell: one resolved lane batch
// per device position, shared bias rails.
type halfCellBatch struct {
	load, driver, access device.ResolvedBatch
	vdd, wl, bl          float64
}

// gatherShifts collects shift component idx of every lane into buf.
func gatherShifts(shs []Shifts, idx int, buf []float64) []float64 {
	buf = buf[:0]
	for i := range shs {
		buf = append(buf, shs[i][idx])
	}
	return buf
}

// halfLanes positions h on one cell half for every lane in shs. buf is
// shift-gather scratch; the (possibly grown) buffer is returned for reuse.
func (c *Cell) halfLanes(side Side, shs []Shifts, o *VTCOptions, buf []float64, h *halfCellBatch) []float64 {
	li, di, ai := side.devices()
	buf = gatherShifts(shs, li, buf)
	c.Devs[li].ResolveLanes(buf, &h.load)
	buf = gatherShifts(shs, di, buf)
	c.Devs[di].ResolveLanes(buf, &h.driver)
	buf = gatherShifts(shs, ai, buf)
	c.Devs[ai].ResolveLanes(buf, &h.access)
	h.vdd, h.wl, h.bl = c.Vdd, o.WordLine, o.BitLine
	return buf
}

// current evaluates the KCL residual of every active lane at its node
// voltage v[l] into out[l]. Store-then-add reproduces the scalar sum
// (iDrv + iLoad) + iAcc with identical association — including signed
// zeros, which a zero-initialize-and-accumulate form would not.
func (h *halfCellBatch) current(vin float64, v []float64, active []bool, out []float64) {
	h.driver.StoreIds(vin, v, 0, 0, active, out)
	h.load.AddIds(vin, v, h.vdd, h.vdd, active, out)
	h.access.AddIds(h.wl, v, h.bl, 0, active, out)
}

func growB(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// readVTCLanes is the lockstep counterpart of readVTCInto: it sweeps the
// half-cell transfer curve of every lane in shs over the shared input grid,
// writing grid-major rows (rows[i*lanes+l] = lane l's output at grid point
// i) and the shared grid into in (length n+1). Each residual round
// evaluates every lane still solving the current grid point, so the
// occupied lane slots equal the billed iterations.
func (c *Cell) readVTCLanes(side Side, shs []Shifts, n int, o *VTCOptions, st *batchScratch, in, rows []float64) {
	lanes := len(shs)
	st.shiftBuf = c.halfLanes(side, shs, o, st.shiftBuf, &st.half)
	ls := st.lanes
	for l := range ls {
		ls[l].begin(c.Vdd)
	}
	var slots, occupied int64
	for i := 0; i <= n; i++ {
		vin := c.Vdd * float64(i) / float64(n)
		for l := range ls {
			ls[l].startPoint()
		}
		for {
			cnt := 0
			for l := range ls {
				a := !ls[l].done
				st.active[l] = a
				if a {
					st.x[l] = ls[l].next
					cnt++
				}
			}
			if cnt == 0 {
				break
			}
			st.half.current(vin, st.x, st.active, st.f)
			slots += int64(lanes)
			occupied += int64(cnt)
			for l := range ls {
				if st.active[l] {
					ls[l].observe(st.f[l], o.BisectIter)
				}
			}
		}
		row := rows[i*lanes : (i+1)*lanes]
		for l := range ls {
			row[l] = ls[l].r1
		}
		in[i] = vin
	}
	solves := int64(n+1) * int64(lanes)
	o.Telemetry.add(solves, occupied)
	o.Telemetry.addLanes(slots, occupied)
	recordGlobal(solves, occupied)
	recordGlobalLanes(slots, occupied)
}
