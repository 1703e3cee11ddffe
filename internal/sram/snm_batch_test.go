package sram

import (
	"math"
	"math/rand"
	"testing"
)

func randShifts(rng *rand.Rand, n int, scale float64) []Shifts {
	shs := make([]Shifts, n)
	for i := range shs {
		for j := range shs[i] {
			shs[i][j] = scale * rng.NormFloat64()
		}
	}
	return shs
}

func assertBatchMatchesScalar(t *testing.T, c *Cell, shs []Shifts, opts *SNMOptions) {
	t.Helper()
	out := make([]SNMResult, len(shs))
	c.NoiseMarginBatch(shs, out, opts)
	for i, sh := range shs {
		want := c.NoiseMargin(sh, opts)
		if math.Float64bits(out[i].Lobe1) != math.Float64bits(want.Lobe1) ||
			math.Float64bits(out[i].Lobe2) != math.Float64bits(want.Lobe2) {
			t.Fatalf("sample %d/%d: batch=%+v scalar=%+v (shifts %v)", i, len(shs), out[i], want, sh)
		}
	}
}

// TestNoiseMarginBatchMatchesScalar pins the batch kernel bit-for-bit
// against the scalar path across the chunking edge cases the ISSUE calls
// out (1, 63, 64, 65, 257), both margin modes, and a non-default lane
// width.
func TestNoiseMarginBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := NewCell(0.7)
	opts := &SNMOptions{GridN: 24, BisectIter: 24}
	for _, n := range []int{1, 63, 64, 65} {
		assertBatchMatchesScalar(t, c, randShifts(rng, n, 0.08), opts)
	}
	// 257 spans five chunks at the default width; keep the grid small so
	// the scalar cross-check stays cheap.
	small := &SNMOptions{GridN: 8, BisectIter: 24}
	assertBatchMatchesScalar(t, c, randShifts(rng, 257, 0.08), small)

	hold := &SNMOptions{GridN: 16, BisectIter: 24, Hold: true}
	assertBatchMatchesScalar(t, c, randShifts(rng, 33, 0.1), hold)

	narrow := &SNMOptions{GridN: 12, BisectIter: 24, Lanes: 5}
	assertBatchMatchesScalar(t, c, randShifts(rng, 23, 0.12), narrow)
}

// TestNoiseMarginBatchNonFinite pins the batch kernel on NaN/Inf shifts:
// the scalar solver has defined (if degenerate) behaviour there, and the
// lockstep masks must reproduce it exactly rather than hang or diverge.
func TestNoiseMarginBatchNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCell(0.7)
	opts := &SNMOptions{GridN: 8, BisectIter: 24}
	shs := randShifts(rng, 9, 0.05)
	shs[1][D1] = math.NaN()
	shs[3][L2] = math.Inf(1)
	shs[5][A1] = math.Inf(-1)
	shs[7][D2] = math.NaN()
	shs[7][L1] = math.Inf(1)
	assertBatchMatchesScalar(t, c, shs, opts)
}

// TestNoiseMarginBatchTelemetry requires the batch path to bill exactly the
// solver effort the scalar path would have billed for the same samples, and
// to report a sane lane-occupancy split.
func TestNoiseMarginBatchTelemetry(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := NewCell(0.7)
	shs := randShifts(rng, 70, 0.08)

	var scalarTel SolveTelemetry
	sOpts := &SNMOptions{GridN: 16, BisectIter: 24, Telemetry: &scalarTel}
	for _, sh := range shs {
		c.NoiseMargin(sh, sOpts)
	}

	var batchTel SolveTelemetry
	bOpts := &SNMOptions{GridN: 16, BisectIter: 24, Telemetry: &batchTel}
	out := make([]SNMResult, len(shs))
	c.NoiseMarginBatch(shs, out, bOpts)

	ss, si := scalarTel.Totals()
	bs, bi := batchTel.Totals()
	if ss != bs || si != bi {
		t.Fatalf("telemetry diverged: scalar (%d solves, %d iters) vs batch (%d, %d)", ss, si, bs, bi)
	}
	slots, occ := batchTel.LaneTotals()
	if slots <= 0 || occ <= 0 || occ > slots {
		t.Fatalf("implausible lane occupancy: %d/%d", occ, slots)
	}
	if s, o := scalarTel.LaneTotals(); s != 0 || o != 0 {
		t.Fatalf("scalar path billed lane occupancy: %d/%d", o, s)
	}
	// Every occupied lane slot is exactly one billed residual evaluation.
	if occ != bi {
		t.Fatalf("occupied lanes (%d) != billed iters (%d)", occ, bi)
	}
}

// TestSolveCountsExpansionEvals pins the telemetry undercount fix: bracket
// expansion spends real residual evaluations and they must be billed.
func TestSolveCountsExpansionEvals(t *testing.T) {
	c := NewCell(0.8)
	var o VTCOptions
	o.fill(c.Vdd)
	h := c.half(Left, Shifts{}, &o)
	// Root near Vdd; a bracket entirely below it forces hi-expansion.
	_, iters := h.solve(0, -0.2, -0.1, o.BisectIter)
	if iters < 1 {
		t.Fatalf("expansion evaluations not billed: iters=%d", iters)
	}
}

// FuzzNoiseMarginBatch drives random shift batches — including non-finite
// components — through the batch kernel on the engine's 24-point grid, at a
// supply of 0.3, 0.5 or 0.7 V (the low supplies give the flat curves where
// continuation steps are hardest), and requires bit-identity with the
// per-sample scalar NoiseMargin.
func FuzzNoiseMarginBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.05, false, uint8(0), uint8(2))
	f.Add(int64(2), uint8(1), 0.10, true, uint8(1), uint8(0))
	f.Add(int64(3), uint8(2), 0.20, false, uint8(2), uint8(1))
	f.Add(int64(4), uint8(3), 0.08, false, uint8(3), uint8(0))
	f.Add(int64(5), uint8(4), 0.15, true, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, sizeSel uint8, scale float64, hold bool, nfSel uint8, vddSel uint8) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 10 {
			t.Skip()
		}
		sizes := []int{1, 2, 5, 63, 64, 65}
		n := sizes[int(sizeSel)%len(sizes)]
		rng := rand.New(rand.NewSource(seed))
		shs := randShifts(rng, n, scale)
		// Sprinkle non-finite components deterministically from the seed.
		switch nfSel % 4 {
		case 1:
			shs[rng.Intn(n)][rng.Intn(NumTransistors)] = math.NaN()
		case 2:
			shs[rng.Intn(n)][rng.Intn(NumTransistors)] = math.Inf(1)
		case 3:
			shs[rng.Intn(n)][rng.Intn(NumTransistors)] = math.Inf(-1)
			shs[rng.Intn(n)][rng.Intn(NumTransistors)] = math.NaN()
		}
		opts := &SNMOptions{GridN: 24, BisectIter: 24, Hold: hold}
		out := make([]SNMResult, n)
		c := NewCell([]float64{0.3, 0.5, 0.7}[int(vddSel)%3])
		c.NoiseMarginBatch(shs, out, opts)
		for i, sh := range shs {
			want := c.NoiseMargin(sh, opts)
			if math.Float64bits(out[i].Lobe1) != math.Float64bits(want.Lobe1) ||
				math.Float64bits(out[i].Lobe2) != math.Float64bits(want.Lobe2) {
				t.Fatalf("lane %d/%d diverged: batch=%+v scalar=%+v (shifts %v)", i, n, out[i], want, sh)
			}
		}
	})
}

func BenchmarkNoiseMarginBatch(b *testing.B) {
	c := NewCell(0.7)
	rng := rand.New(rand.NewSource(4))
	const n = 256
	shs := randShifts(rng, n, 0.08)
	out := make([]SNMResult, n)
	// Engine-shaped options: GridN 24, BisectIter 24 (see core.New).
	b.Run("scalar", func(b *testing.B) {
		opts := &SNMOptions{GridN: 24, BisectIter: 24}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, sh := range shs {
				c.NoiseMargin(sh, opts)
			}
		}
		b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "margins/s")
	})
	for _, lanes := range []int{64, 128, 256} {
		lanes := lanes
		b.Run("lanes"+itoa(lanes), func(b *testing.B) {
			opts := &SNMOptions{GridN: 24, BisectIter: 24, Lanes: lanes}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.NoiseMarginBatch(shs, out, opts)
			}
			b.ReportMetric(float64(b.N*n)/b.Elapsed().Seconds(), "margins/s")
		})
	}
}

// itoa avoids pulling strconv into the test just for bench names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
