package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"smoke": Smoke, "default": Default, "": Default, "full": Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTableIRendersConditions(t *testing.T) {
	var b bytes.Buffer
	TableI(&b)
	out := b.String()
	for _, want := range []string{"500 mV·nm", "16 nm", "load 60 / driver 30 / access 30", "0.95 nm", "4e-03 nm^-2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4SnapshotsTrackFailureRegion(t *testing.T) {
	r := Fig4(1)
	if len(r.Initial) == 0 || len(r.Candidates) == 0 || len(r.Resampled) == 0 {
		t.Fatalf("empty panels: %d %d %d", len(r.Initial), len(r.Candidates), len(r.Resampled))
	}
	if len(r.Candidates) != len(r.Weights) {
		t.Fatal("weights do not match candidates")
	}
	var b bytes.Buffer
	r.WriteCSV(&b)
	if c := strings.Count(b.String(), "# "); c != 3 {
		t.Fatalf("expected 3 CSV panels, got %d", c)
	}
}

func TestFig5DefectiveCellFails(t *testing.T) {
	r := Fig5()
	if r.NominalSNM <= 0 {
		t.Fatalf("nominal SNM = %v", r.NominalSNM)
	}
	if r.DefectiveSNM >= 0 {
		t.Fatalf("defective SNM = %v, want negative", r.DefectiveSNM)
	}
	var b bytes.Buffer
	r.WriteCSV(&b)
	if !strings.Contains(b.String(), "defective cell") {
		t.Fatal("CSV missing defective block")
	}
}

func TestFig6SmokeProposedBeatsConventional(t *testing.T) {
	r, err := Fig6(1, Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if r.Proposed.Estimate.P <= 0 || r.Conventional.Estimate.P <= 0 {
		t.Fatalf("estimates: %v %v", r.Proposed.Estimate.P, r.Conventional.Estimate.P)
	}
	// The blockade must yield dramatically fewer simulations.
	if r.Proposed.Estimate.Sims*2 > r.Conventional.Estimate.Sims {
		t.Fatalf("proposed %d sims vs conventional %d", r.Proposed.Estimate.Sims, r.Conventional.Estimate.Sims)
	}
	var b bytes.Buffer
	r.Write(&b)
	if !strings.Contains(b.String(), "proposed (ECRIPSE)") {
		t.Fatal("missing proposed series")
	}
}

func TestFig7SmokeSpeedsUpNaive(t *testing.T) {
	r, eng, err := Fig7(1, Smoke, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("engine not returned")
	}
	if r.Naive.Estimate.Sims != 20000 {
		t.Fatalf("naive sims = %d", r.Naive.Estimate.Sims)
	}
	// Agreement within generous bounds (smoke runs are small).
	np, pp := r.Naive.Estimate.P, r.Proposed.Estimate.P
	if pp < np/2 || pp > np*2 {
		t.Fatalf("naive %v vs proposed %v", np, pp)
	}
	// Reuse the engine for the second panel (Fig. 7(b)): fewer sims.
	r2, _, err := Fig7(2, Smoke, 0.5, eng)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Proposed.Estimate.Sims >= r.Proposed.Estimate.Sims {
		t.Fatalf("shared init did not save sims: %d vs %d",
			r2.Proposed.Estimate.Sims, r.Proposed.Estimate.Sims)
	}
}

func TestFig8SmokeShape(t *testing.T) {
	r, err := Fig8(1, Smoke)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.MinAlpha != 0.5 {
		t.Fatalf("minimum at alpha=%v, want 0.5", r.MinAlpha)
	}
	if r.WorstOverRDF < 2 {
		t.Fatalf("RTN/RDF ratio = %v, want clearly > 1", r.WorstOverRDF)
	}
	var b bytes.Buffer
	r.Write(&b)
	if !strings.Contains(b.String(), "RDF-only reference") {
		t.Fatal("missing reference line")
	}
}

func TestMethodsComparison(t *testing.T) {
	r, err := Methods(1, Smoke, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// All estimators agree with the reference within a loose factor (the
	// blockade's one-sided recall bias gets extra slack downward).
	for _, row := range r.Rows {
		p := row.Estimate.P
		lo := r.Reference / 3
		if row.Name == "statistical blockade [12]" {
			lo = r.Reference / 10
		}
		if p < lo || p > r.Reference*3 {
			t.Fatalf("%s: %v vs reference %v", row.Name, p, r.Reference)
		}
	}
	// ECRIPSE must be the cheapest per achieved relative error.
	var ecripseRow, naiveRow MethodRow
	for _, row := range r.Rows {
		switch row.Name {
		case "ECRIPSE (proposed)":
			ecripseRow = row
		case "naive MC":
			naiveRow = row
		}
	}
	if ecripseRow.Estimate.Sims >= naiveRow.Estimate.Sims {
		t.Fatal("ECRIPSE not cheaper than naive")
	}
	if ecripseRow.Estimate.RelErr >= naiveRow.Estimate.RelErr {
		t.Fatal("ECRIPSE not tighter than naive")
	}
	var b bytes.Buffer
	r.Write(&b)
	if !strings.Contains(b.String(), "ECRIPSE (proposed)") {
		t.Fatal("table missing ECRIPSE row")
	}
}
