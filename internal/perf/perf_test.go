package perf

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSummarize(t *testing.T) {
	s := summarize([]time.Duration{3, 1, 2})
	if s.Runs != 3 || s.Mean != 2 || s.Median != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if z := summarize(nil); z.Runs != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestMeasureExecutionAllKinds(t *testing.T) {
	for _, kind := range AllTxKinds {
		res, err := MeasureExecution(Options{Runs: 3}, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Stats.Runs != 3 || res.Stats.Mean <= 0 {
			t.Fatalf("%s stats = %+v", kind, res.Stats)
		}
		if res.Phase != PhaseExecution {
			t.Fatalf("phase = %v", res.Phase)
		}
	}
}

func TestMeasureValidationAllKinds(t *testing.T) {
	for _, kind := range AllTxKinds {
		res, err := MeasureValidation(Options{Runs: 3, Framework: "defended", Security: core.DefendedFabric()}, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Stats.Runs != 3 || res.Stats.Mean <= 0 {
			t.Fatalf("%s stats = %+v", kind, res.Stats)
		}
	}
}

func TestRunFig11AndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 11 sweep skipped in -short")
	}
	results, err := RunFig11(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 { // 2 frameworks x 2 phases x 3 kinds
		t.Fatalf("results = %d, want 12", len(results))
	}
	out := Render(results)
	for _, want := range []string{"execution latency", "validation latency", "read", "write", "delete", "overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}
