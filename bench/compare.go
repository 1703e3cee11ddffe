package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// bound is one metric's regression rule; limit 0 means none (per-layer).
type bound struct {
	better string
	limit  float64
}

func readBounds(path string) (map[string]bound, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range s.EndToEnd {
		out[m.Name] = bound{m.Better, m.Bound}
	}
	for _, m := range s.PerLayer {
		out[m.Name] = bound{better: m.Better}
	}
	return out, nil
}

// readDocs loads result documents from files that each hold a JSON array of
// them, as -o writes.
func readDocs(paths []string) ([]*Doc, error) {
	var docs []*Doc
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var many []*Doc
		if err := json.Unmarshal(raw, &many); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		docs = append(docs, many...)
	}
	return docs, nil
}

// exactMetrics are pure functions of the workload seed: they count over a
// fixed prefix of ops. Between runs of the same seeds any worsening is a
// regression, whatever the bound; the bound in BENCHMARK.json, sized to
// their seed-to-seed spread, applies between different seeds.
var exactMetrics = map[string]bool{"sims_per_op": true, "sims_to_relerr10": true}

// verdict compares the runs of a parent (a) and a change (b) of one metric:
// "WORSE" when b's median is worse than a's by more than the bound (by
// anything at all when exact), "unresolved" when either side's spread
// (interquartile range over median) exceeds the bound, unless every run of
// b is better than every run of a, and "ok" otherwise. Without a bound
// there is no verdict ("-").
func verdict(a, b []float64, bd bound, exact bool) string {
	if bd.limit == 0 || len(a) == 0 || len(b) == 0 {
		return "-"
	}
	sign := 1.0 // +1: lower is better
	if bd.better == "higher" {
		sign = -1
	}
	worse := sign * (median(b) - median(a)) / math.Abs(median(a))
	if exact {
		if worse > 0 {
			return "WORSE"
		}
		return "ok"
	}
	if spread(a) > bd.limit || spread(b) > bd.limit {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if sign*(y-x) >= 0 {
					allBetter = false
				}
			}
		}
		if allBetter {
			return "ok"
		}
		return "unresolved"
	}
	if worse > bd.limit {
		return "WORSE"
	}
	return "ok"
}

// sameSeeds reports whether both sides ran the same seeds, as many times
// each.
func sameSeeds(s [2][]int64) bool {
	if len(s[0]) != len(s[1]) {
		return false
	}
	a := append([]int64(nil), s[0]...)
	b := append([]int64(nil), s[1]...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// errWorse makes compare exit non-zero when a metric regressed.
var errWorse = errors.New("a metric is worse than its bound")

// compareMain implements "bench compare [-spec BENCHMARK.json] A... -- B...":
// for each workload and metric it prints both sides' median and quartiles
// and a verdict against the bound BENCHMARK.json fixes.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	sep := -1
	for i, a := range rest {
		if a == "--" {
			sep = i
		}
	}
	if sep < 1 || sep == len(rest)-1 {
		return errors.New("usage: bench compare [-spec BENCHMARK.json] A.json... -- B.json...")
	}
	bounds, err := readBounds(*specPath)
	if err != nil {
		return err
	}
	sides := [2][]*Doc{}
	for i, paths := range [2][]string{rest[:sep], rest[sep+1:]} {
		if sides[i], err = readDocs(paths); err != nil {
			return err
		}
		if len(sides[i]) == 0 {
			return fmt.Errorf("no result documents in %v", paths)
		}
	}
	ref := sides[0][0].Host
	for _, side := range sides {
		for _, d := range side {
			if !d.Host.sameMachine(ref) {
				return fmt.Errorf("documents come from different hosts (%s, %d cpu vs %s, %d cpu); compare runs of one host only",
					ref.CPU, ref.NProc, d.Host.CPU, d.Host.NProc)
			}
		}
	}
	type key struct{ workload, metric string }
	vals := map[key][2][]float64{}
	measured := map[key]bool{} // false: a layer the workload does not exercise (n=0 throughout)
	seeds := map[key][2][]int64{}
	for i, side := range sides {
		for _, d := range side {
			for name, m := range d.Metrics {
				s := seeds[key{d.Workload, name}]
				s[i] = append(s[i], d.Seed)
				seeds[key{d.Workload, name}] = s
				k := key{d.Workload, name}
				v := vals[k]
				v[i] = append(v[i], m.Value)
				vals[k] = v
				measured[k] = measured[k] || m.N > 0
			}
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		if measured[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "host %s, %d cpu; A %d documents, B %d documents\n", ref.CPU, ref.NProc, len(sides[0]), len(sides[1]))
	fmt.Fprintf(w, "%-13s %-30s %-36s %-36s %8s %s\n", "workload", "metric", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "change", "verdict")
	worse := false
	for _, k := range keys {
		v := vals[k]
		side := func(xs []float64) string {
			if len(xs) == 0 {
				return "-"
			}
			q1, q3 := quartiles(xs)
			return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
		}
		change := "-"
		if len(v[0]) > 0 && len(v[1]) > 0 && median(v[0]) != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(median(v[1])-median(v[0]))/math.Abs(median(v[0])))
		}
		vd := verdict(v[0], v[1], bounds[k.metric], exactMetrics[k.metric] && sameSeeds(seeds[k]))
		worse = worse || vd == "WORSE"
		fmt.Fprintf(w, "%-13s %-30s %-36s %-36s %8s %s\n", k.workload, k.metric, side(v[0]), side(v[1]), change, vd)
	}
	if worse {
		return errWorse
	}
	return nil
}
