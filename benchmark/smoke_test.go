package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// One in-process -quick run of every workload, untraced and traced: every
// metric BENCHMARK.json names is emitted exactly once with its unit, and no
// other; the oracle passes; the bypass predictions hold.
func TestQuickSmoke(t *testing.T) {
	sp, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	defs, err := loadDefs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadNames))
	}
	check := func(t *testing.T, kind string, want []specMetric, got []Metric) map[string]float64 {
		t.Helper()
		values := map[string]float64{}
		units := map[string]string{}
		for _, m := range got {
			if _, dup := values[m.Name]; dup {
				t.Errorf("%s metric %s emitted twice", kind, m.Name)
			}
			values[m.Name], units[m.Name] = m.Value, m.Unit
		}
		for _, m := range want {
			if _, ok := values[m.Name]; !ok {
				t.Errorf("%s metric %s of BENCHMARK.json not emitted", kind, m.Name)
			} else if units[m.Name] != m.Unit {
				t.Errorf("%s metric %s emitted in %q, BENCHMARK.json says %q", kind, m.Name, units[m.Name], m.Unit)
			}
			delete(units, m.Name)
		}
		for name := range units {
			t.Errorf("%s metric %s emitted but not in BENCHMARK.json", kind, name)
		}
		return values
	}
	for i, w := range workloadNames {
		if sp.Workloads[i].Name != w {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, sp.Workloads[i].Name, w)
		}
		t.Run(w, func(t *testing.T) {
			b := &bench{ctx: context.Background(), outDir: t.TempDir(), workDir: t.TempDir(),
				seed: 1, quick: true, defs: defs}
			res, layers, err := b.runWorkload(w, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, acked lost %d: %v", res.Attempted, res.Failed, res.AckedLost, res.Notes)
			}
			e2e := check(t, "end-to-end", sp.EndToEnd, res.Metrics)
			for name, v := range e2e {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v)
				}
			}
			layer := check(t, "per-layer", sp.PerLayer, layers)
			if _, err := os.Stat(filepath.Join(b.outDir, "trace-"+w+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
			// Storage is bypassed in memory and used when durable.
			if fsyncs := layer["storage.fsyncs_per_case"]; (fsyncs > 0) != isDurable(w) {
				t.Errorf("storage.fsyncs_per_case = %v on %s", fsyncs, w)
			}
			// The task layer does nothing on the script workloads.
			if !hasHumans(w) && (layer["client.task_op_p50_ms"] != 0 || layer["api.worklist_self_us"] != 0) {
				t.Errorf("task activity on %s", w)
			}
			if hasHumans(w) && layer["core.recovered_instances"] == 0 {
				t.Errorf("nothing recovered on %s", w)
			}
		})
	}
}
