package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one benchmark run. Zero sizes are derived from Seconds;
// tests set them directly to run tiny versions of each workload.
type config struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	OutDir   string
	Tamper   string

	Setups        int // boots per run whose median is setup_s
	Cycles        int // host-mutate: timed cycles
	SnapshotEvery int // host-mutate: cycles between POST /snapshot
	Hosts         int // fleet-advance: synthetic hosts
	Rounds        int // fleet-advance: timed rounds
	FixtureCycles int // restart: cycles driven into the fixture store
	Recoveries    int // restart: timed cold recoveries
	BurstCycles   int // restart: post-recovery cycles per recovery
}

// Work per --seconds, calibrated on a 2-core x86 VM so a run measures
// roughly that long: host-mutate spends about half of it in the loop
// and half in the cold recoveries after it; restart, whose recoveries
// each carry a 1000-cycle burst, measures about half as long again.
// Changing any of these changes what a seed means: results are only
// comparable at equal values.
const (
	hostCyclesPerSecond  = 250
	fleetRoundsPerSecond = 4
	recoveriesPer10s     = 4
)

func (c config) withDefaults() config {
	if c.Seconds <= 0 {
		c.Seconds = 10
	}
	if c.Setups <= 0 {
		// A single-host boot takes a few milliseconds that swing by a
		// factor of two from boot to boot: many of them keep the median
		// steady. Fleet boots and fixture builds take seconds.
		c.Setups = 3
		if c.Workload == "host-mutate" {
			c.Setups = 31
		}
	}
	if c.Cycles <= 0 {
		c.Cycles = hostCyclesPerSecond * c.Seconds
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 1000
	}
	if c.Hosts <= 0 {
		c.Hosts = 128
	}
	if c.Rounds <= 0 {
		c.Rounds = fleetRoundsPerSecond * c.Seconds
	}
	if c.FixtureCycles <= 0 {
		c.FixtureCycles = 3000
	}
	if c.Recoveries <= 0 {
		c.Recoveries = max(2, recoveriesPer10s*c.Seconds/10)
	}
	if c.BurstCycles <= 0 {
		c.BurstCycles = 1000
	}
	return c
}

// workloadFunc runs one pass of a workload: setups boots (the last one
// is measured), the timed operations, then the correctness checks.
// tr is nil for an untraced pass.
type workloadFunc func(cfg config, work string, tr *tracer, setups int) (*pass, error)

var workloads = map[string]workloadFunc{
	"host-mutate":   runHostMutate,
	"fleet-advance": runFleetAdvance,
	"restart":       runRestart,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// check is one correctness assertion of a pass.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything a run prints: the report lines and the summary
// that becomes the last line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Hashes    map[string]string
	Checks    []check
	Report    []string
}

func (r *result) summary() map[string]any {
	metrics := make(map[string]metric, len(r.Metrics))
	for k, m := range r.Metrics {
		// A metric with no samples (only in a run whose checks already
		// failed) is NaN, which JSON cannot carry.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		metrics[k] = m
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

func (r *result) printf(format string, args ...any) {
	r.Report = append(r.Report, fmt.Sprintf(format, args...))
}

// run executes one benchmark run: an untraced pass whose end-to-end
// numbers are the result, or — with Trace — an untraced pass followed
// by a traced pass whose per-layer numbers are the result and whose
// gap to the untraced pass is the tracing overhead.
func run(cfg config) (*result, error) {
	cfg = cfg.withDefaults()
	fn, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.OutDir, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	res := &result{Metrics: map[string]metric{}, Hashes: map[string]string{}}
	res.printf("# e2ebench %s seed=%d seconds=%d trace=%v", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	meta := machineMeta(cfg)
	metaLine, _ := json.Marshal(meta)
	res.printf("# meta %s", metaLine)

	setups := cfg.Setups
	if cfg.Trace {
		setups = 1
	}
	base, err := fn(cfg, work, nil, setups)
	if err != nil {
		return nil, err
	}
	e2e := endToEnd(base)
	final := base
	if cfg.Trace {
		tr := newTracer()
		traced, err := fn(cfg, work, tr, 1)
		if err != nil {
			return nil, err
		}
		final = traced
		for _, c := range traced.checks {
			c.Name = "traced: " + c.Name
			base.checks = append(base.checks, c)
		}
		// Same seed, same work: both passes must land on identical
		// state.
		for k, v := range base.hashes {
			if tv, ok := traced.hashes[k]; ok {
				base.checks = append(base.checks, check{
					Name: "hash repeats in traced pass: " + k, OK: tv == v,
					Detail: fmt.Sprintf("untraced %s traced %s", short(v), short(tv)),
				})
			}
		}
		tracedE2E := endToEnd(traced)
		layers := perLayer(traced, tr, e2e, tracedE2E)
		for name, m := range layers {
			res.Metrics[name] = m
		}
		spanFile := filepath.Join(cfg.OutDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := tr.write(spanFile, meta); err != nil {
			return nil, err
		}
		res.printf("# spans: %d written to %s", len(tr.spans), spanFile)
		res.Report = append(res.Report, layerReport(tr, layers)...)
		res.Report = append(res.Report, overheadReport(e2e, tracedE2E)...)
	} else {
		for name, m := range e2e {
			res.Metrics[name] = m
		}
	}

	res.Checks = base.checks
	res.Hashes = base.hashes
	res.Attempted, res.Failed = final.d.attempted, final.d.failed
	res.Correct = true
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
			res.Correct = false
		}
		res.printf("# check %s %s  %s", status, c.Name, c.Detail)
	}
	for _, k := range sortedKeys(res.Hashes) {
		res.printf("# hash %s = %s", k, res.Hashes[k])
	}
	res.printf("# requests: %d attempted, %d failed, error_rate %.6f", res.Attempted, res.Failed, errorRate(final))
	for _, e := range final.d.errs {
		res.printf("# error: %s", e)
	}
	for _, name := range sortedKeys(e2e) {
		res.printf("# e2e %-18s %14.4f %s", name, e2e[name].Value, e2e[name].Unit)
	}
	res.Report = append(res.Report, latencyReport(base)...)
	return res, nil
}

func errorRate(p *pass) float64 {
	if p.d.attempted == 0 {
		return 0
	}
	return float64(p.d.failed) / float64(p.d.attempted)
}

func short(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
