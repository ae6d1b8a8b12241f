package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is BENCHMARK.json: the contract the driver reads and the
// bounds compare applies.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*benchmarkSpec, error) {
	data, err := os.ReadFile(filepath.Join(rootDir(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// does (the exclusive method), which is what the driver uses.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median; it needs
// at least two runs.
func spread(v []float64) (float64, bool) {
	if len(v) < 2 {
		return 0, false
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v), true
}

type side struct {
	values            map[string]map[string][]float64 // workload → metric → one value per run
	attempted, failed map[string]int
}

func loadSide(path string) (*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, r := range env.Workloads {
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
		if r.Traced {
			continue
		}
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, mv := range r.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], mv.Value)
		}
	}
	return s, nil
}

// compareMain prints one row per workload × end-to-end metric — better,
// same, worse, or unresolved when either side's run-to-run spread is wider
// than the bound — and exits non-zero on any worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: pdcbench compare A.json B.json")
		return 2
	}
	spec, err := loadSpec()
	var a, b *side
	if err == nil {
		a, err = loadSide(args[0])
	}
	if err == nil {
		b, err = loadSide(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdcbench compare:", err)
		return 2
	}
	worse := false
	fmt.Printf("%-13s %-14s %6s %12s %12s %8s %8s %8s %6s  %s\n", "workload", "metric", "unit", "A median", "B median", "change", "spreadA", "spreadB", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-13s %-14s %6s %12s %12s %8s %8s %8s %6.2f  missing\n", w.Name, m.Name, m.Unit, "-", "-", "-", "-", "-", m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			// worsening is positive when B is worse, whatever the direction.
			worsening := (mb - ma) / ma
			if m.Better == "higher" {
				worsening = -worsening
			}
			sa, okA := spread(va)
			sb, okB := spread(vb)
			verdict := "same"
			switch {
			case okA && sa > m.Bound || okB && sb > m.Bound:
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict, worse = "worse", true
			case worsening < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-13s %-14s %6s %12.4f %12.4f %+7.1f%% %8s %8s %6.2f  %s\n", w.Name, m.Name, m.Unit, ma, mb,
				100*(mb-ma)/ma, pct(sa, okA), pct(sb, okB), m.Bound, verdict)
		}
		if a.failed[w.Name] != b.failed[w.Name] || a.attempted[w.Name] != b.attempted[w.Name] {
			fmt.Printf("%-13s failed/attempted %d/%d -> %d/%d\n", w.Name, a.failed[w.Name], a.attempted[w.Name], b.failed[w.Name], b.attempted[w.Name])
		}
	}
	if worse {
		return 1
	}
	return 0
}

func pct(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*v)
}
