package device

import (
	"math"
	"math/rand"
	"testing"
)

// batchPrototypes returns one NMOS and one PMOS device with every secondary
// effect enabled, so the lane kernel exercises the body-effect, DIBL,
// channel-length-modulation and mobility-degradation branches.
func batchPrototypes() []*Device {
	n := NewDevice(PTM16HPNMOS(), 80e-9, 16e-9)
	p := NewDevice(PTM16HPPMOS(), 60e-9, 16e-9)
	p.DVth = 0.013 // non-zero prototype shift: lanes add on top of it
	return []*Device{n, p}
}

// laneRefIds is the scalar reference for lane l: a copy of the prototype
// with the lane shift folded into DVth, resolved, evaluated.
func laneRefIds(d *Device, dv, vg, vd, vs, vb float64) float64 {
	c := *d
	c.DVth += dv
	r := c.Resolve()
	return r.Ids(vg, vd, vs, vb)
}

func TestResolvedBatchMatchesResolved(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range batchPrototypes() {
		d := d
		t.Run(d.Pol.String(), func(t *testing.T) {
			for _, lanes := range []int{1, 2, 3, 4, 5, 6, 7, 64, 65} {
				dvth := make([]float64, lanes)
				for l := range dvth {
					dvth[l] = 0.25 * rng.NormFloat64()
				}
				var b ResolvedBatch
				d.ResolveLanes(dvth, &b)
				if b.Lanes() != lanes {
					t.Fatalf("Lanes() = %d, want %d", b.Lanes(), lanes)
				}

				vd := make([]float64, lanes)
				out := make([]float64, lanes)
				active := make([]bool, lanes)
				for trial := 0; trial < 50; trial++ {
					vg := -0.2 + 1.2*rng.Float64()
					vs := -0.2 + 1.2*rng.Float64()
					vb := vs
					if trial%3 == 0 {
						vb = -0.2 + 1.2*rng.Float64() // exercise the body-effect path
					}
					if trial%5 == 0 {
						vs = 0
						vb = 0 // exercise the fastVsb0 path
					}
					for l := range vd {
						vd[l] = -0.3 + 1.3*rng.Float64() // both vd<vs and vd>vs orders
					}
					b.StoreIds(vg, vd, vs, vb, nil, out)
					for l := range out {
						want := laneRefIds(d, dvth[l], vg, vd[l], vs, vb)
						if math.Float64bits(out[l]) != math.Float64bits(want) {
							t.Fatalf("lane %d: StoreIds=%g (%#x) want %g (%#x) at vg=%g vd=%g vs=%g vb=%g",
								l, out[l], math.Float64bits(out[l]), want, math.Float64bits(want), vg, vd[l], vs, vb)
						}
					}
					// AddIds must reproduce out[l] + ids exactly.
					prev := append([]float64(nil), out...)
					b.AddIds(vg, vd, vs, vb, nil, out)
					for l := range out {
						want := prev[l] + laneRefIds(d, dvth[l], vg, vd[l], vs, vb)
						if math.Float64bits(out[l]) != math.Float64bits(want) {
							t.Fatalf("lane %d: AddIds=%g want %g", l, out[l], want)
						}
					}
					// Under a random mask, active lanes are exact and
					// inactive ones are left untouched.
					const sentinel = -123.5
					for l := range out {
						active[l] = rng.Intn(2) == 0
						out[l] = sentinel
					}
					b.StoreIds(vg, vd, vs, vb, active, out)
					for l := range out {
						want := laneRefIds(d, dvth[l], vg, vd[l], vs, vb)
						if !active[l] {
							want = sentinel
						}
						if math.Float64bits(out[l]) != math.Float64bits(want) {
							t.Fatalf("lane %d (active %v): masked StoreIds=%g want %g", l, active[l], out[l], want)
						}
					}
				}
			}
		})
	}
}

func TestResolvedBatchActiveMask(t *testing.T) {
	d := batchPrototypes()[0]
	const lanes = 8
	dvth := make([]float64, lanes)
	for l := range dvth {
		dvth[l] = 0.01 * float64(l)
	}
	var b ResolvedBatch
	d.ResolveLanes(dvth, &b)

	vd := make([]float64, lanes)
	for l := range vd {
		vd[l] = 0.1 * float64(l+1)
	}
	active := make([]bool, lanes)
	out := make([]float64, lanes)
	const sentinel = -123.5
	for l := range out {
		out[l] = sentinel
		active[l] = l%2 == 0
	}
	b.StoreIds(0.7, vd, 0, 0, active, out)
	for l := range out {
		want := laneRefIds(d, dvth[l], 0.7, vd[l], 0, 0)
		if active[l] {
			if math.Float64bits(out[l]) != math.Float64bits(want) {
				t.Fatalf("active lane %d: got %g want %g", l, out[l], want)
			}
		} else if out[l] != sentinel {
			t.Fatalf("inactive lane %d was written: %g", l, out[l])
		}
	}
}

func TestResolvedBatchLaneMaterializes(t *testing.T) {
	for _, d := range batchPrototypes() {
		dvth := []float64{-0.05, 0, 0.08}
		var b ResolvedBatch
		d.ResolveLanes(dvth, &b)
		for l := range dvth {
			r := b.Lane(l)
			got := r.Ids(0.6, 0.4, 0, 0)
			want := laneRefIds(d, dvth[l], 0.6, 0.4, 0, 0)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s lane %d: Lane().Ids=%g want %g", d.Pol, l, got, want)
			}
		}
	}
}

// TestResolveLanesReusesCapacity pins the no-allocation contract the solver
// relies on when re-resolving per batch.
func TestResolveLanesReusesCapacity(t *testing.T) {
	d := batchPrototypes()[0]
	var b ResolvedBatch
	d.ResolveLanes(make([]float64, 256), &b)
	ptr := &b.vt0[0]
	d.ResolveLanes(make([]float64, 64), &b)
	if b.Lanes() != 64 {
		t.Fatalf("Lanes() = %d, want 64", b.Lanes())
	}
	if &b.vt0[0] != ptr {
		t.Fatal("ResolveLanes reallocated vt0 despite sufficient capacity")
	}
}

// FuzzResolvedBatchIds pins the lane kernel (whichever build-tag variant is
// compiled in) bit-for-bit against Resolved.Ids, including non-finite lane
// shifts and terminal voltages.
func FuzzResolvedBatchIds(f *testing.F) {
	f.Add(0.01, -0.02, 0.7, 0.35, 0.2, 0.0, 0.0, false)
	f.Add(-0.3, 0.4, 0.0, -0.1, 0.6, 0.1, -0.05, true)
	f.Add(math.Inf(1), 0.0, 0.7, 0.7, 0.0, 0.0, 0.0, false)
	f.Add(math.NaN(), 0.25, 0.5, -0.3, 0.4, 0.05, 0.0, true)
	f.Fuzz(func(t *testing.T, dv0, dv1, vg, vd0, vd1, vs, vb float64, pmos bool) {
		d := batchPrototypes()[0]
		if pmos {
			d = batchPrototypes()[1]
		}
		dvth := []float64{dv0, dv1}
		var b ResolvedBatch
		d.ResolveLanes(dvth, &b)
		vd := []float64{vd0, vd1}
		out := []float64{0, 0}
		b.StoreIds(vg, vd, vs, vb, nil, out)
		for l := range out {
			want := laneRefIds(d, dvth[l], vg, vd[l], vs, vb)
			if math.Float64bits(out[l]) != math.Float64bits(want) {
				t.Fatalf("lane %d: got %#x want %#x (dv=%g vg=%g vd=%g vs=%g vb=%g pmos=%v)",
					l, math.Float64bits(out[l]), math.Float64bits(want), dvth[l], vg, vd[l], vs, vb, pmos)
			}
		}
	})
}

func BenchmarkResolvedBatchIds(b *testing.B) {
	d := batchPrototypes()[0]
	const lanes = 64
	dvth := make([]float64, lanes)
	vd := make([]float64, lanes)
	rng := rand.New(rand.NewSource(7))
	for l := range dvth {
		dvth[l] = 0.1 * rng.NormFloat64()
		vd[l] = 0.7 * rng.Float64()
	}
	var rb ResolvedBatch
	d.ResolveLanes(dvth, &rb)
	out := make([]float64, lanes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.StoreIds(0.7, vd, 0, 0, nil, out)
	}
	b.ReportMetric(float64(lanes), "lanes/op")
}
