package main

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ecripse/internal/service"
)

func TestOpenScheduleIsSeeded(t *testing.T) {
	a := openSchedule(7, 16, openJitter, 30*time.Second)
	b := openSchedule(7, 16, openJitter, 30*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 16, openJitter, 30*time.Second)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

func TestOpenScheduleShape(t *testing.T) {
	const rate, jitter, dur = 16.0, 0.2, 200 * time.Second
	sched := openSchedule(3, rate, jitter, dur)
	const prefill = 24 // rate·repeatAge/2
	for i, a := range sched[:prefill] {
		if a.at != -repeatAge || a.repeat != -1 {
			t.Fatalf("prefill arrival %d: %+v, want a fresh spec due %v", i, a, -repeatAge)
		}
	}
	window := sched[prefill:]
	if window[0].at < 0 {
		t.Fatalf("%d prefill arrivals, want %d", prefill+1, prefill)
	}
	if n, want := float64(len(window)), rate*dur.Seconds(); n < 0.9*want || n > 1.1*want {
		t.Fatalf("%v arrivals in %v at %v/s, want about %v", n, dur, rate, want)
	}
	repeats := 0
	var last time.Duration
	for i, a := range window {
		gap := (a.at - last).Seconds() * rate
		if gap < 1-jitter-1e-9 || gap > 1+jitter+1e-9 || a.at >= dur {
			t.Fatalf("arrival %d at %v: gap %.3f of 1/rate, or past the window", i, a.at, gap)
		}
		last = a.at
		if (a.repeat >= 0) != (i%2 == 1) {
			t.Fatalf("arrival %d: repeat %v; fresh specs and repeats must alternate", i, a.repeat >= 0)
		}
		if a.repeat < 0 {
			if a.spec.N == 0 || a.spec.Alpha < 0.1 || a.spec.Alpha > 0.9 {
				t.Fatalf("fresh arrival %d has spec %+v", i, a.spec)
			}
			continue
		}
		repeats++
		src := sched[a.repeat]
		if src.repeat >= 0 || src.spec.Key() != a.spec.Key() {
			t.Fatalf("arrival %d repeats %d, which is not the fresh spec it copies", i, a.repeat)
		}
		if a.at-src.at < repeatAge {
			t.Fatalf("arrival %d repeats a key due only %v earlier", i, a.at-src.at)
		}
	}
	if share := float64(repeats) / float64(len(window)); share < 0.45 || share > 0.55 {
		t.Fatalf("%d repeats among %d arrivals: share %.2f, want about 1/2", repeats, len(window), share)
	}
}

// TestOpenLoopLateness: requests go out on schedule even while earlier ones
// are still in flight, and each request's lateness is measured from its own
// due time.
func TestOpenLoopLateness(t *testing.T) {
	var sched []arrival
	for i := 0; i < 20; i++ {
		sched = append(sched, arrival{at: time.Duration(i) * 10 * time.Millisecond, spec: missSpec(int64(i+1), 0.5)})
	}
	var inFlight, maxInFlight atomic.Int64
	reqs := openLoop(context.Background(), sched, func(spec service.JobSpec, due time.Time) request {
		q := request{late: time.Since(due).Seconds()}
		n := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if n <= m || maxInFlight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(100 * time.Millisecond) // a slow server must not delay later sends
		inFlight.Add(-1)
		return q
	})
	if len(reqs) != len(sched) {
		t.Fatalf("%d results for %d arrivals", len(reqs), len(sched))
	}
	var lates []float64
	for i, q := range reqs {
		if q.key != sched[i].spec.Key() {
			t.Fatalf("request %d carries key %q, want its spec's", i, q.key)
		}
		lates = append(lates, q.late)
	}
	if p99 := quantile(lates, 0.99); p99 > maxLateness.Seconds() {
		t.Fatalf("p99 lateness %.1f ms with a slow server; the loop is not open", 1e3*p99)
	}
	if maxInFlight.Load() < 5 {
		t.Fatalf("at most %d requests in flight; sends waited for earlier replies", maxInFlight.Load())
	}
}
