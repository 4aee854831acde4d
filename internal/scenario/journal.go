package scenario

import (
	"fmt"
	"sort"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/snap"
	"repro/internal/topology"
)

// ToJournal converts a drill spec into a snap reconstruction config
// and command journal: admissions at time zero, timeline operations in
// time order (ties keep spec order, workloads before faults), and a
// final advance to the drill's duration. Run applies exactly this
// journal to a session, so a drill on disk doubles as a
// determinism-regression input — `ihdiag replay` and
// snap.CheckDeterminism consume the result directly, and replaying it
// reproduces the drill's run.
func ToJournal(spec Spec) (snap.Config, snap.Journal) {
	cfg, j, _ := toJournal(spec)
	return cfg, j
}

// toJournal is ToJournal plus one drill-timeline line per entry (empty
// for the final advance), worded from the spec.
func toJournal(spec Spec) (snap.Config, snap.Journal, []string) {
	opts := core.DefaultOptions()
	opts.Seed = spec.Seed
	if spec.ArbiterMode != "" {
		opts.Arbiter.Mode = arbiter.Mode(spec.ArbiterMode)
	}
	cfg := snap.Config{Preset: spec.Preset, Options: opts}

	var j snap.Journal
	var lines []string
	add := func(e snap.Entry, line string) {
		e.Seq = uint64(len(j.Entries))
		j.Entries = append(j.Entries, e)
		lines = append(lines, line)
	}

	for _, ts := range spec.Tenants {
		e := snap.Entry{Kind: snap.KindAdmit, Tenant: ts.Tenant}
		for _, tg := range ts.Targets {
			e.Targets = append(e.Targets, snap.Target{
				Src: tg.Src, Dst: tg.Dst,
				RateBps: float64(topology.Gbps(tg.RateGbps)),
			})
		}
		add(e, fmt.Sprintf("admitted tenant %s (%d targets)", ts.Tenant, len(e.Targets)))
	}

	// Merge workloads and faults into one timeline; the stable sort
	// over workloads-first input breaks at_us ties.
	type op struct {
		atUs int64
		e    snap.Entry
		line string
	}
	var ops []op
	for _, w := range spec.Workloads {
		ops = append(ops, op{w.AtUs, snap.Entry{
			Kind: snap.KindWorkload, Workload: w.Kind,
			Tenant: w.Tenant, Src: w.Src, Dst: w.Dst,
		}, fmt.Sprintf("started %s workload for tenant %s", w.Kind, w.Tenant)})
	}
	for _, f := range spec.Faults {
		var e snap.Entry
		switch f.Kind {
		case "degrade":
			e = snap.Entry{Kind: snap.KindDegrade, Link: f.Link,
				LossFrac: f.LossFrac, ExtraNs: f.ExtraUs * 1000}
		case "fail":
			e = snap.Entry{Kind: snap.KindFail, Link: f.Link}
		case "restore":
			e = snap.Entry{Kind: snap.KindRestoreLink, Link: f.Link}
		case "config":
			e = snap.Entry{Kind: snap.KindSetConfig,
				Component: f.Component, Key: f.Key, Value: f.Value}
		default:
			continue // Load already rejected unknown kinds
		}
		ops = append(ops, op{f.AtUs, e, fmt.Sprintf("fault %s %s%s", f.Kind, f.Link, f.Component)})
	}
	sort.SliceStable(ops, func(i, k int) bool { return ops[i].atUs < ops[k].atUs })
	var lastNs int64
	for _, o := range ops {
		o.e.AtNs = o.atUs * 1000
		if o.e.AtNs > lastNs {
			lastNs = o.e.AtNs
		}
		add(o.e, o.line)
	}

	if durNs := spec.DurationUs * 1000; durNs > lastNs {
		add(snap.Entry{AtNs: lastNs, Kind: snap.KindAdvance, ToNs: durNs}, "")
	}
	return cfg, j, lines
}
