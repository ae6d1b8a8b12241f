// Command pdcbench is the repository's benchmark of record: four
// workloads driven from outside the program through the layers' public
// functions, end-to-end metrics measured with tracing off, and a traced
// pass plus a layer replay that attribute them to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"syscall"
)

// envelope is the one output schema: where it ran, with what, and every
// run made.
type envelope struct {
	Env       envInfo      `json:"env"`
	Params    params       `json:"params"`
	Workloads []*runResult `json:"workloads"`
}

type envInfo struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
}

type params struct {
	Seconds      float64            `json:"seconds"`
	Runs         int                `json:"runs"`
	InflightMax  int                `json:"inflight_max"`
	Gateways     int                `json:"gateways"`
	BatchSize    int                `json:"batch_size"`
	IdleRate     float64            `json:"idle_rate"`
	Rates        map[string]float64 `json:"rates"`
	WarmupS      float64            `json:"warmup_s"`
	SetupRepeats int                `json:"setup_repeats"`
	MaxSteal     float64            `json:"max_steal"`
	Untraced     map[string]float64 `json:"untraced_phase_shares"`
	Traced       map[string]float64 `json:"traced_phase_shares"`
}

func gitCommit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout, as the driver does
}

// rootDir is the checkout root: run.sh exports it; otherwise the working
// directory is the root or the benchmark directory itself.
func rootDir() string {
	if r := os.Getenv("PDCBENCH_ROOT"); r != "" {
		return r
	}
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

func newEnvelope(seed int64, seconds float64, runs int) *envelope {
	env := &envelope{
		Env: envInfo{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: gitCommit(), Seed: seed},
		Params: params{
			Seconds: seconds, Runs: runs, InflightMax: inflightMax, Gateways: min(runtime.NumCPU(), maxGateways),
			BatchSize: batchSize, IdleRate: idleRate, Rates: map[string]float64{}, WarmupS: warmupTime.Seconds(), SetupRepeats: setupRepeats, MaxSteal: maxSteal,
			Untraced: map[string]float64{"idle": untracedShares.idle, "loaded": untracedShares.loaded, "sat": untracedShares.sat},
			Traced:   map[string]float64{"loaded": tracedShares.loaded, "traced": tracedShares.traced, "sat": tracedShares.sat},
		},
	}
	for _, w := range workloads {
		env.Params.Rates[w.name] = w.rate
	}
	return env
}

func main() {
	// wire_durable re-executes this binary once per role process.
	if handled, err := runRoleFromEnv(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdcbench role:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	// A run that is told to stop must not leave wire_durable's role
	// processes behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(1)
	}()
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("pdcbench", flag.ExitOnError)
	workloadFlag := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of every random choice: schedule, keys, op mix, raft jitter")
	seconds := fs.Float64("seconds", defaultSecs, "measured window of one run, split over the phases")
	trace := fs.String("trace", "both", "0/false: end-to-end metrics, tracing off; 1/true: per-layer metrics from the traced pass and layer replay; both")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	smoke := fs.Bool("smoke", false, "about one second per phase, every workload, traced pass included")
	out := fs.String("out", "", "envelope file (default <root>/benchmark/out/result.json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark process")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit")
	fs.Parse(args)

	var modes []bool
	switch strings.ToLower(*trace) {
	case "0", "false":
		modes = []bool{false}
	case "1", "true":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "pdcbench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *smoke {
		*seconds = smokeSeconds
	}
	selected := workloads
	if *workloadFlag != "all" {
		w := workloadByName(*workloadFlag)
		if w == nil {
			fmt.Fprintf(os.Stderr, "pdcbench: unknown workload %q\n", *workloadFlag)
			return 2
		}
		selected = []*workload{w}
	}
	outDir := filepath.Join(rootDir(), "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pdcbench:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(outDir, "result.json")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdcbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "pdcbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	env := newEnvelope(*seed, *seconds, *runs)

	ok := true
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			for _, traced := range modes {
				res, err := runWorkload(w, *seed+int64(r), *seconds, traced, outDir)
				if err != nil {
					// No result line: the driver must see a failed run, not a number.
					fmt.Fprintln(os.Stderr, "pdcbench:", err)
					return 1
				}
				env.Workloads = append(env.Workloads, res)
				report(os.Stderr, res)
				ok = ok && res.Correct
			}
		}
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdcbench:", err)
		return 1
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pdcbench:", err)
			return 1
		}
	}
	// One result line per run, the last run last.
	for _, res := range env.Workloads {
		line, _ := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
		})
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// report prints one run for a human: every metric by name with its unit,
// sample counts beside the percentiles, and the stage table.
func report(w *os.File, r *runResult) {
	mode := "end-to-end (tracing off)"
	if r.Traced {
		mode = "per-layer (traced pass + layer replay)"
	}
	fmt.Fprintf(w, "\n== %s seed %d: %s ==\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d fail_ratio=%g", r.Correct, r.Attempted, r.Failed, r.FailRatio)
	if r.Saturated {
		fmt.Fprint(w, " SATURATED (loaded achieved_ratio < 0.95)")
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "  CPU time stolen by other guests, per repetition:")
	for _, v := range r.Steal {
		fmt.Fprintf(w, " %.1f%%", 100*v)
	}
	fmt.Fprintf(w, " (above %g%% a repetition is left out of the medians, unless all are)\n", 100*maxSteal)
	for _, v := range r.Gate {
		fmt.Fprintln(w, "  GATE:", v)
	}
	for _, v := range r.Failures {
		fmt.Fprintln(w, "  FAILED:", v)
	}
	fmt.Fprintf(w, "  %-8s %8s %8s %6s %8s %8s %8s %9s %9s %9s %9s\n", "phase", "offered", "attempt", "failed", "tx_n", "query_n", "backlog", "achieved", "lag_p95ms", "tx_p50ms", "tx_p95ms")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-8s %8d %8d %6d %8d %8d %8d %9.3f %9.3f %9.3f %9.3f\n", p.Name, p.Offered, p.Attempted, p.Failed,
			p.TxSamples, p.QuerySamples, p.Backlog, p.AchievedRatio, p.LagP95Ms, p.TxP50Ms, p.TxP95Ms)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	absent := make(map[string]bool)
	for _, name := range r.Absent {
		absent[name] = true
	}
	for _, d := range defs {
		if absent[d.name] {
			fmt.Fprintf(w, "  %-36s absent (layer idle or not visible here)\n", d.name)
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if len(r.Stages) > 0 {
		fmt.Fprintln(w, "  stage table (p50 over the traced transactions):")
		for _, s := range r.Stages {
			fmt.Fprintf(w, "    %-22s %10.1f us %6.1f%%\n", s.Stage, s.P50Us, 100*s.Share)
		}
		fmt.Fprintf(w, "    %-22s %10.3f\n", "trace.sum_over_e2e", r.Metrics["trace.sum_over_e2e"].Value)
		if r.StageNote != "" {
			fmt.Fprintln(w, "    note:", r.StageNote)
		}
	}
}
