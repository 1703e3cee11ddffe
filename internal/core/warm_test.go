package core

import (
	"encoding/json"
	"math/rand"
	"testing"

	"ecripse/internal/sram"
)

// TestWarmStateRoundTrip: exporting a run's warm state, shipping it through
// JSON (as the service cache does), and seeding a fresh engine must skip both
// init phases (zero init/warm-up simulations), produce a sane estimate, and
// be bit-deterministic — including across the JSON round trip.
func TestWarmStateRoundTrip(t *testing.T) {
	cell := sram.NewCell(0.5)
	opts := Options{NIS: 1500, Directions: 128, WarmupTrain: 200}

	cold := NewEngine(cell, nil, opts)
	r1 := mustRun(t, cold, rand.New(rand.NewSource(3)), nil)
	if r1.InitSims == 0 || r1.WarmupSims == 0 {
		t.Fatalf("cold run should pay init (%d) and warm-up (%d) sims", r1.InitSims, r1.WarmupSims)
	}
	ws, err := cold.Warm()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Cloud) == 0 || len(ws.Classifier) == 0 || ws.TrustR <= 0 {
		t.Fatalf("incomplete warm state: %d cloud points, %d classifier bytes, trustR %v",
			len(ws.Cloud), len(ws.Classifier), ws.TrustR)
	}

	runWarm := func(w *WarmState) Result {
		eng := NewEngine(cell, nil, opts)
		if err := eng.SeedWarm(w); err != nil {
			t.Fatal(err)
		}
		if !eng.Warmed() {
			t.Fatal("engine not marked warmed")
		}
		return mustRun(t, eng, rand.New(rand.NewSource(3)), nil)
	}

	warm := runWarm(ws)
	if warm.InitSims != 0 || warm.WarmupSims != 0 {
		t.Fatalf("warm run paid init %d / warm-up %d sims, want 0/0", warm.InitSims, warm.WarmupSims)
	}
	if warm.Estimate.P <= 0 {
		t.Fatalf("warm estimate collapsed: %v", warm.Estimate)
	}
	if warm.Estimate.Sims >= r1.Estimate.Sims {
		t.Fatalf("warm run total %d sims >= cold %d — no saving", warm.Estimate.Sims, r1.Estimate.Sims)
	}

	// JSON round trip must not perturb a single bit of the outcome.
	raw, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	var ws2 WarmState
	if err := json.Unmarshal(raw, &ws2); err != nil {
		t.Fatal(err)
	}
	warm2 := runWarm(&ws2)
	if warm2.Estimate != warm.Estimate || warm2.Stage1Sims != warm.Stage1Sims || warm2.Stage2Sims != warm.Stage2Sims {
		t.Fatalf("JSON round trip changed the warm result:\n  %+v\n  %+v", warm.Estimate, warm2.Estimate)
	}

	// Seeding an already-initialized engine must refuse.
	if err := cold.SeedWarm(ws); err == nil {
		t.Fatal("SeedWarm on an initialized engine did not error")
	}
}
