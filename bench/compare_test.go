package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := bound{better: "lower", limit: 0.1}
	higher := bound{better: "higher", limit: 0.1}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98}
	for _, c := range []struct {
		name  string
		a, b  []float64
		bd    bound
		exact bool
		want  string
	}{
		{"unchanged", steady, steady, lower, false, "ok"},
		{"5% slower, within the bound", steady, scale(steady, 1.05), lower, false, "ok"},
		{"20% slower", steady, scale(steady, 1.2), lower, false, "WORSE"},
		{"20% faster", steady, scale(steady, 0.8), lower, false, "ok"},
		{"higher is better: 20% lower", steady, scale(steady, 0.8), higher, false, "WORSE"},
		{"higher is better: 20% higher", steady, scale(steady, 1.2), higher, false, "ok"},
		{"spread wider than the bound", []float64{0.8, 1.0, 1.2, 0.9, 1.1}, scale(steady, 1.05), lower, false, "unresolved"},
		{"wide spread, but every run better", []float64{1.5, 1.8, 2.2, 1.6, 2.0}, steady, lower, false, "ok"},
		{"no bound", steady, scale(steady, 2), bound{better: "lower"}, false, "-"},
		{"exact: unchanged", steady, steady, lower, true, "ok"},
		{"exact: 1% worse, within the bound", steady, scale(steady, 1.01), lower, true, "WORSE"},
		{"exact: 1% better", steady, scale(steady, 0.99), lower, true, "ok"},
	} {
		if got := verdict(c.a, c.b, c.bd, c.exact); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// writeDocs stores docs as one -o style array file.
func writeDocs(t *testing.T, path string, docs ...*Doc) {
	t.Helper()
	b, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func doc(cpu string, v float64) *Doc {
	return &Doc{
		Host: Host{NProc: 2, CPU: cpu}, Workload: "fig7-rtn",
		Metrics: map[string]Metric{"op_s_p50": {Value: v, Unit: "s", N: 100}},
	}
}

func simsDoc(seed int64, sims float64) *Doc {
	return &Doc{
		Host: Host{NProc: 2, CPU: "cpu-x"}, Workload: "rdf-rare", Seed: seed,
		Metrics: map[string]Metric{"sims_per_op": {Value: sims, Unit: "count", N: 270}},
	}
}

// TestCompareExactCounts: a count metric that got worse at all is WORSE
// between runs of the same seeds, and judged by its bound between
// different seeds.
func TestCompareExactCounts(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeDocs(t, a, simsDoc(1, 1000), simsDoc(2, 1010))
	writeDocs(t, b, simsDoc(2, 1015), simsDoc(1, 1005)) // 0.5% more simulations
	writeDocs(t, c, simsDoc(3, 1015), simsDoc(4, 1005))
	var out strings.Builder
	if err := compareMain([]string{"-spec", "../BENCHMARK.json", a, "--", b}, &out); !errors.Is(err, errWorse) {
		t.Fatalf("same seeds, 0.5%% more simulations: err %v, want WORSE\n%s", err, out.String())
	}
	out.Reset()
	if err := compareMain([]string{"-spec", "../BENCHMARK.json", a, "--", c}, &out); err != nil {
		t.Fatalf("other seeds, 0.5%% more simulations: %v, want ok within the bound\n%s", err, out.String())
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	a, b, other := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeDocs(t, a, doc("cpu-x", 1.00), doc("cpu-x", 1.01), doc("cpu-x", 0.99))
	writeDocs(t, b, doc("cpu-x", 1.50), doc("cpu-x", 1.52), doc("cpu-x", 1.49))
	writeDocs(t, other, doc("cpu-y", 1.00))

	var out strings.Builder
	err := compareMain([]string{"-spec", "../BENCHMARK.json", a, "--", b}, &out)
	if !errors.Is(err, errWorse) || !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("50%% slower op_s_p50: err %v, output\n%s", err, out.String())
	}
	out.Reset()
	if err := compareMain([]string{"-spec", "../BENCHMARK.json", a, "--", a}, &out); err != nil {
		t.Fatalf("a set against itself: %v\n%s", err, out.String())
	}
	err = compareMain([]string{"-spec", "../BENCHMARK.json", a, "--", other}, &out)
	if err == nil || !strings.Contains(err.Error(), "different hosts") {
		t.Fatalf("documents of two hosts: err %v, want a refusal", err)
	}
}
