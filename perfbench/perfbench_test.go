package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the tests check the output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun runs one workload briefly with a single set-up.
func shortRun(t *testing.T, workload string, trace bool, f faults) *result {
	t.Helper()
	cfg := &config{
		workload:  workload,
		seed:      7,
		seconds:   time.Second,
		trace:     trace,
		setupRuns: 1,
		workDir:   filepath.Join(t.TempDir(), "work"),
		faults:    f,
	}
	if trace {
		cfg.seconds = 2 * time.Second
	}
	res, err := runBenchmark(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestEveryWorkloadEmitsItsMetrics runs every workload the benchmark
// knows, including any BENCHMARK.json does not list.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workloads")
	}
	for _, w := range s.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %s", w.Name)
		}
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, name, trace, faults{})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
				}
			}
		}
	}
}

func TestCorruptedExpectedEncodingIsAFailure(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		res := shortRun(t, name, false, faults{corruptExpected: true})
		if res.Correct || !failedWith(res, "known-good", "differs from the original") {
			t.Errorf("%s: corrupted expectations went unnoticed: %q", name, res.failures)
		}
	}
}

func TestAdmittedReplayIsAFailure(t *testing.T) {
	res := shortRun(t, "serve", false, faults{admitReplays: true})
	if res.Correct || !failedWith(res, "replayed token") {
		t.Errorf("admitted replays went unnoticed: %q", res.failures)
	}
}

// failedWith reports whether a failure message contains any of subs.
func failedWith(res *result, subs ...string) bool {
	for _, f := range res.failures {
		for _, s := range subs {
			if strings.Contains(f, s) {
				return true
			}
		}
	}
	return false
}
