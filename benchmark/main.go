// Command benchmark is the repository's end-to-end and per-layer benchmark
// for a live bpmsd. See README.md in this directory.
//
//	go -C benchmark run . [-workload w] [-seed n] [-trace] [-aa] [-quick]
//
// It builds cmd/bpmsd, starts it as a child process with default flags,
// drives it over loopback HTTP from two connections with a pre-generated,
// seeded operation stream, checks every reply against a generator-side
// oracle and prints the end-to-end metrics. With -trace it also replays the
// first part of the same stream in-process, one client, sequentially, with
// spans recorded around the calls into each layer, and prints the
// per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"slices"
	"syscall"
)

func main() {
	// The generator shares the sandbox's two cores with the server it
	// measures: collecting its own garbage less often takes less from it.
	debug.SetGCPercent(800)
	os.Exit(run(os.Args[1:]))
}

// normaliseArgs lets -trace be written both as a bare switch and, as the
// benchmark driver does, with a 0 or 1 after it.
func normaliseArgs(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if a := args[i]; a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
				v = args[i+1]
				i++
			}
			out = append(out, "-trace="+v)
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "one of script_durable, script_memory, human_backlog, crash_recovery (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the generated operation stream")
	seconds := fs.Int("seconds", 0, "passed by the benchmark driver; must be BENCHMARK.json's run_seconds (operation counts are fixed, so it changes nothing)")
	trace := fs.Bool("trace", false, "also run the traced in-process replay and print the per-layer metrics")
	aa := fs.Bool("aa", false, "run the full set twice and compare the two against the bounds in BENCHMARK.json")
	quick := fs.Bool("quick", false, "divide operation counts by 50")
	root := fs.String("root", "", "checkout root (default: found from the working directory)")
	if err := fs.Parse(normaliseArgs(args)); err != nil {
		return 2
	}
	workloads := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []string{*workload}
	}

	// SIGINT/SIGTERM cancel ctx: children die with it (exec.CommandContext),
	// in-flight calls fail, and the deferred clean-up below still runs.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	rootDir, err := findRoot(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sp, err := readSpec(rootDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds != 0 && *seconds != sp.RunSeconds {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds %d: runs are sized by fixed operation counts for run_seconds = %d\n", *seconds, sp.RunSeconds)
		return 2
	}
	b, cleanup, err := newBench(ctx, rootDir, *seed, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer cleanup()

	if *aa {
		return b.runAA(workloads, sp)
	}
	code := 0
	for _, w := range workloads {
		res, layers, err := b.runWorkload(w, *trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			if tail := tailOf(filepath.Join(b.outDir, "bpmsd-"+w+".log"), 20); tail != "" {
				fmt.Fprintf(os.Stderr, "--- tail of bpmsd-%s.log ---\n%s\n", w, tail)
			}
			return 1
		}
		printResult(os.Stdout, res, layers)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// findRoot locates the checkout: the directory holding cmd/bpmsd and this
// benchmark, tried at the working directory and its parent (`go run` from
// the root, `go -C benchmark run .`).
func findRoot(flagged string) (string, error) {
	candidates := []string{flagged}
	if flagged == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "bpmsd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(c, "benchmark", "testdata", "pipeline.json")); err == nil {
				return filepath.Abs(c)
			}
		}
	}
	return "", fmt.Errorf("cannot find the checkout root (cmd/bpmsd and benchmark/testdata); pass -root")
}

// newBench builds bpmsd and prepares the output and scratch directories.
// Everything it writes is under benchmark/out (untracked): reports at the
// top, build outputs and data dirs in build/.
func newBench(ctx context.Context, root string, seed int64, quick bool) (*bench, func(), error) {
	b := &bench{ctx: ctx, seed: seed, quick: quick,
		outDir: filepath.Join(root, "benchmark", "out")}
	buildDir := filepath.Join(b.outDir, "build")
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	var err error
	if b.defs, err = loadDefs(filepath.Join(root, "benchmark", "testdata")); err != nil {
		return nil, nil, err
	}
	if b.bpmsd, err = buildBpmsd(ctx, root, buildDir); err != nil {
		return nil, nil, err
	}
	if err := checkDefaults(ctx, b.bpmsd); err != nil {
		return nil, nil, err
	}
	if b.workDir, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, nil, err
	}
	return b, func() { os.RemoveAll(b.workDir) }, nil
}

// loadDefs reads the two process definitions the benchmark owns.
func loadDefs(dir string) (map[string][]byte, error) {
	defs := map[string][]byte{}
	for id, file := range map[string]string{pipelineID: "pipeline.json", claimsID: "claims.json"} {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return nil, err
		}
		defs[id] = data
	}
	return defs, nil
}

// runWorkload runs one workload untraced and, with trace, the traced replay
// after it; layers is nil without trace.
func (b *bench) runWorkload(workload string, trace bool) (res *e2eResult, layers []Metric, err error) {
	if res, err = b.runE2E(workload, trace); err != nil {
		return nil, nil, err
	}
	if trace {
		defer os.RemoveAll(res.dataDir)
		if layers, err = b.runTraced(res); err != nil {
			return nil, nil, err
		}
	}
	return res, layers, nil
}

// printResult writes the readings by name with unit and sample count, then,
// as the last line, the JSON object the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced
// one.
func printResult(w io.Writer, res *e2eResult, layers []Metric) {
	failed := res.Failed + res.AckedLost
	fmt.Fprintf(w, "== %s: attempted=%d failed=%d acked_lost=%d failed_ratio=%.6f\n",
		res.Workload, res.Attempted, failed, res.AckedLost, float64(failed)/float64(max(res.Attempted, 1)))
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   FAILED %s\n", n)
	}
	for _, t := range res.Tails {
		fmt.Fprintf(w, "   %s\n", t)
	}
	info, reported := res.Extra, res.Metrics
	if layers != nil {
		info, reported = res.Metrics, layers
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range append(info[:len(info):len(info)], reported...) {
		if m.N > 0 {
			fmt.Fprintf(w, "%-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, m := range reported {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	last, _ := json.Marshal(map[string]any{ // marshalling plain maps and numbers cannot fail
		"correct": res.correct(), "attempted": max(res.Attempted, 1), "failed": failed, "metrics": metrics,
	})
	fmt.Fprintf(w, "%s\n", last)
}
