package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/jthread"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, perfbench runs %d", len(bench.Workloads), len(workloads))
	}
	for _, m := range bench.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunsReportDeclaredMetrics runs every workload briefly, untraced and
// traced, and checks each reports exactly the declared metrics, correctly.
// The single-goroutine workloads never contend, so they must never inflate.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name, run := range workloads {
		if name == "sessions" && testing.Short() {
			continue
		}
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 5, seconds: 1, trace: trace, traceOut: filepath.Join(t.TempDir(), "trace.json")}
			rep := run(cfg, jthread.NewVM())
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d errs=%v", name, trace, res.Correct, res.Failed, res.Attempted, rep.errs)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := keys(rep.metrics); !sameSet(got, want) {
				t.Errorf("%s trace=%v reports %v, want %v", name, trace, got, want)
			}
			if trace && name != "tree-paced" {
				if v := rep.metrics["core.inflations_per_kwrite"].Value; v != 0 {
					t.Errorf("%s inflated: %v per kwrite", name, v)
				}
			}
			if trace {
				if _, err := os.Stat(cfg.traceOut); err != nil {
					t.Errorf("%s: no trace written: %v", name, err)
				}
			}
		}
	}
}
