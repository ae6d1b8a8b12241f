package main

import (
	"fmt"
	"os"
	"testing"
)

// TestMain doubles as the cluster's role runner: wire_durable re-executes
// the test binary once per role process.
func TestMain(m *testing.M) {
	if handled, err := runRoleFromEnv(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdcbench role:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BENCHMARK.json and the code declare the same workloads and metrics.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d in code", kind, len(declared), len(defs))
			return
		}
		for i, m := range declared {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: %s [%s] declared, %s [%s] in code", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if spec.RunSeconds != defaultSecs {
		t.Errorf("run_seconds %d, code default %d", spec.RunSeconds, defaultSecs)
	}
}

// The smoke run (-smoke: about a second per phase) of every workload,
// traced pass included: every declared metric is emitted with its unit,
// nothing fails and the correctness gate passes. No timing is asserted.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	env := newEnvelope(1, smokeSeconds, 1)
	if env.Env.Cores < 1 || env.Env.GOMAXPROCS < 1 || env.Env.GoVersion == "" || env.Env.Commit == "" || env.Env.Seed != 1 {
		t.Errorf("env incomplete: %+v", env.Env)
	}
	for _, w := range workloads {
		if w.wire && testing.Short() {
			continue
		}
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				res, err := runWorkload(w, 1, smokeSeconds, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Errorf("correctness gate: %v", res.Gate)
				}
				if res.Failed != 0 || res.FailRatio != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, fail_ratio %v", res.Attempted, res.Failed, res.FailRatio)
				}
				declared := spec.EndToEnd
				if traced {
					declared = spec.PerLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("%s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("%s emitted in %q, declared in %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !traced {
					for name, v := range res.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, v.Value)
						}
					}
				}
			})
		}
	}
}

// A loaded phase the system cannot keep up with is flagged, not failed:
// its commits still count toward the gate, on every repetition.
func TestSaturatedRunPassesGate(t *testing.T) {
	w := *workloadByName("pub_small")
	w.rate = 20000
	res, err := runWorkload(&w, 1, smokeSeconds, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatalf("%v ops/s did not saturate the system: %+v", w.rate, res.Phases)
	}
	if !res.Correct {
		t.Errorf("correctness gate: %v", res.Gate)
	}
}

// Repetitions the hypervisor disturbed are left out, unless all were.
func TestUndisturbed(t *testing.T) {
	v := []float64{1, 2, 3}
	for _, c := range []struct {
		steal []float64
		want  float64
	}{
		{[]float64{0, 0, 0}, 2},
		{[]float64{0, 0.5, 0}, 2},
		{[]float64{0.5, 0, 0}, 2.5},
		{[]float64{0.5, 0.5, 0}, 3},
		{[]float64{0.5, 0.5, 0.5}, 2},
	} {
		if got := median(undisturbed(v, c.steal)); got != c.want {
			t.Errorf("steal %v: median %v, want %v", c.steal, got, c.want)
		}
	}
}
