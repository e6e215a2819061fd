package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json the benchmark reads back: the names,
// units and bounds it must agree with.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// aaRow is one end-to-end metric of one workload measured twice by the same
// code.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"relDiff"` // |second - first| / first
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// runAA runs the set twice back to back and holds the two runs against the
// benchmark's own bounds: a bound the benchmark cannot meet against itself
// cannot judge a change. It writes benchmark/out/aa.json and returns 1 if
// any pair is outside its bound.
func (b *bench) runAA(workloads []string, sp *spec) int {
	bounds := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var rows []aaRow
	code := 0
	for _, w := range workloads {
		var runs [2]*e2eResult
		for i := range runs {
			var err error
			if runs[i], err = b.runE2E(w, false); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
				return 1
			}
			if !runs[i].correct() {
				fmt.Fprintf(os.Stderr, "benchmark: %s run %d failed its oracle: %v\n", w, i+1, runs[i].Notes)
				code = 1
			}
		}
		for i, m := range runs[0].Metrics {
			first, second := m.Value, runs[1].Metrics[i].Value
			row := aaRow{Workload: w, Metric: m.Name, First: first, Second: second, Bound: bounds[m.Name]}
			if first != 0 {
				row.RelDiff = math.Abs(second-first) / math.Abs(first)
			}
			row.Within = row.RelDiff <= row.Bound
			if !row.Within {
				code = 1
			}
			rows = append(rows, row)
			mark := ""
			if !row.Within {
				mark = "  OUTSIDE"
			}
			fmt.Printf("%-16s %-18s %12.4f %12.4f  diff %6.2f%%  bound %4.0f%%%s\n",
				w, m.Name, first, second, 100*row.RelDiff, 100*row.Bound, mark)
		}
	}
	data, _ := json.MarshalIndent(rows, "", "  ") // plain structs of numbers and strings cannot fail to marshal
	if err := os.WriteFile(filepath.Join(b.outDir, "aa.json"), data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}
