package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests compare
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a seconds-scale version of each workload.
func tiny(t *testing.T, workload string) config {
	return config{
		Workload: workload, Seed: 7, Seconds: 1, OutDir: t.TempDir(),
		Setups: 2, Cycles: 40, SnapshotEvery: 16,
		Hosts: 6, Rounds: 3,
		FixtureCycles: 60, Recoveries: 2, BurstCycles: 16,
	}
}

func mustRun(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Workload, err)
	}
	return res
}

func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", got, want)
	}
	for _, n := range names {
		if workloads[n] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", n)
		}
	}
	if len(spec.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layerCatalog %d", len(spec.PerLayer), len(layerCatalog))
	}
	for i, m := range spec.PerLayer {
		if lm := layerCatalog[i]; lm.Name != m.Name || lm.Unit != m.Unit {
			t.Errorf("per_layer[%d] = %s (%s), layerCatalog has %s (%s)", i, m.Name, m.Unit, lm.Name, lm.Unit)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs every workload at tiny size, plain
// and traced: every check passes, no request fails, and every metric
// BENCHMARK.json names is emitted, finite, with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := tiny(t, w.Name)
			cfg.Trace = traced
			res := mustRun(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Report)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestHashesRepeat: a fixed seed reaches the same final state hashes
// on every run.
func TestHashesRepeat(t *testing.T) {
	for _, w := range workloadNames() {
		a := mustRun(t, tiny(t, w))
		b := mustRun(t, tiny(t, w))
		if len(a.Hashes) == 0 {
			t.Fatalf("%s: no hashes recorded", w)
		}
		for k, v := range a.Hashes {
			if b.Hashes[k] != v {
				t.Errorf("%s: hash %s differs between runs: %s vs %s", w, k, v, b.Hashes[k])
			}
		}
	}
}

// The correctness checks must be able to fail: a tampered expected
// hash fails every workload, and a flipped WAL byte in the restart
// fixture fails the recoveries.
func TestTamperedHashFails(t *testing.T) {
	for _, w := range workloadNames() {
		cfg := tiny(t, w)
		cfg.Tamper = "hash"
		if res := mustRun(t, cfg); res.Correct {
			t.Errorf("%s: tampered hash passed the checks", w)
		}
	}
}

func TestFlippedWALByteFails(t *testing.T) {
	cfg := tiny(t, "restart")
	cfg.Tamper = "wal"
	if res := mustRun(t, cfg); res.Correct {
		t.Errorf("restart: flipped WAL byte passed the checks\n%v", res.Report)
	}
}
