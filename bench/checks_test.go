package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func newDoc() *Doc { return &Doc{Metrics: map[string]Metric{}} }

// TestRefCheckArithmetic: the check centres on p·(1+offset) and its limit
// is 4·√(se² + SE²).
func TestRefCheckArithmetic(t *testing.T) {
	// Twenty estimates alternating around m with sample SD 0.1·√(20/19):
	// SE of the mean 0.1/√19.
	around := func(m float64) []float64 {
		ps := make([]float64, 20)
		for i := range ps {
			ps[i] = m + 0.1*float64(1-2*(i%2))
		}
		return ps
	}
	limit := 4 * math.Hypot(0.01, 0.1/math.Sqrt(19))
	for _, ref := range []reference{{p: 1, se: 0.01}, {p: 1, se: 0.01, offset: -0.2}} {
		want := ref.p * (1 + ref.offset)
		for _, c := range []struct {
			mean float64
			pass bool
		}{
			{want, true},
			{want + 0.99*limit, true},
			{want - 0.99*limit, true},
			{want + 1.01*limit, false},
			{want - 1.01*limit, false},
		} {
			d := newDoc()
			refCheck(d, "x", around(c.mean), ref)
			if got := d.Checks[0].Pass; got != c.pass {
				t.Errorf("%+v, mean %v (limit ±%.4f): pass %v, want %v (%s)", ref, c.mean, limit, got, c.pass, d.Checks[0].Detail)
			}
		}
	}
	d := newDoc()
	refCheck(d, "x", []float64{5, 5, 5}, reference{p: 1, se: 0.01})
	if !d.Checks[0].Pass || !strings.HasPrefix(d.Checks[0].Detail, "skipped") {
		t.Errorf("3 estimates: %+v, want a skipped pass", d.Checks[0])
	}
}

func TestSymZMax(t *testing.T) {
	var ops []op
	for i := 0; i < 10; i++ {
		jitter := 0.001 * float64(i%2)
		for a := 1; a <= 9; a++ {
			p := 0.01 + jitter
			if a == 2 {
				p += 0.01 // alpha 0.2 reads far above its mirror 0.8
			}
			ops = append(ops, op{alpha: float64(a) / 10, p: p})
		}
	}
	if z := symZMax(ops); z < 10 {
		t.Fatalf("symZMax = %v, want a large z for the 0.2/0.8 pair", z)
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric names and units the
// program prints in step with BENCHMARK.json, in order.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s %s, BENCHMARK.json %s %s", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", e2eMetrics, spec.EndToEnd)
	same("per_layer", layerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestSummaryLine: the last line of a run is one JSON object with exactly
// the keys correct, attempted, failed and metrics.
func TestSummaryLine(t *testing.T) {
	d := newDoc()
	d.Attempted = 3
	d.set("op_s_p50", 0.5, 3)
	d.check("x", true, "fine")
	var out strings.Builder
	printDoc(&out, d, e2eMetrics)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.Contains(out.String(), "op_s_p50 0.5 s (n=3)\n") {
		t.Errorf("no human-readable metric line in\n%s", out.String())
	}
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("last line %s", lines[len(lines)-1])
	}
	var m map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(last["metrics"], &m); err != nil || m["op_s_p50"].Value != 0.5 || m["op_s_p50"].Unit != "s" {
		t.Fatalf("metrics %s: %v", last["metrics"], err)
	}
}
