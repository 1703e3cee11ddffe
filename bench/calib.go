package main

import (
	"math"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared: other tenants' load moves its
// speed by 10–40% over minutes, far more than a regression bound. So every
// end-to-end time is reported in reference seconds: an op's wall seconds
// times calRefS over the time a fixed calibration kernel takes right after
// the op. The kernel mixes the hot paths' kinds of work (exp and log1p as in
// the drain-current softplus, short quadratic forms as in the GMM
// log-density, lookups in a 256 KiB table), so contention slows it about as
// much as it slows an op. It runs on one goroutine: run on all cores at
// once it tracked fig7-rtn ops a little better but rdf-rare ops, which
// barely use a second core, far worse (bench/README.md has the numbers). On
// a quiet host a reference second is a wall second within a few percent.
// The kernel and calRefS must never change: they are the unit every
// recorded result is in.
const (
	calIters = 60000  // kernel iterations
	calRefS  = 2.0e-3 // the kernel's median time on a quiet 2-core AMD EPYC host
)

var calTable = func() []float64 {
	t := make([]float64, 1<<15)
	for i := range t {
		t[i] = float64(i%1013) * 1e-3
	}
	return t
}()

// calSink keeps the kernel's result live. service-open calibrates on
// several goroutines at once, hence the atomic.
var calSink atomic.Uint64

func calKernel() float64 {
	x := 0.0
	s := uint64(1)
	var v [6]float64
	for i := 0; i < calIters; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		u := calTable[s&(1<<15-1)]
		x += math.Log1p(math.Exp(u - 0.5))
		for k := range v {
			d := u - float64(k)*0.1
			v[k] = v[k]*0.5 + d*d
		}
	}
	return x + v[0]
}

// refSeconds converts a wall time that just ended into reference seconds,
// timing the calibration kernel right after it. It returns the calibration
// time too.
func refSeconds(wall float64) (ref, cal float64) {
	t0 := time.Now()
	calSink.Store(math.Float64bits(calKernel()))
	cal = time.Since(t0).Seconds()
	return wall * calRefS / cal, cal
}
