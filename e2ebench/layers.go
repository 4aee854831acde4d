package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
)

// counterSet is a flat read of public counters: the host or fleet
// obs.Registry, Engine().Processed, Fabric().SolverStats(), the
// telemetry pipeline, the tracer and bus, store and runner stats.
type counterSet map[string]float64

func (c counterSet) add(o counterSet) {
	for k, v := range o {
		c[k] += v
	}
}

// minus returns c - before, key by key.
func (c counterSet) minus(before counterSet) counterSet {
	out := counterSet{}
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// hostCounters reads one manager's counters. Call it while no request
// is in flight: Engine().Processed is a plain field.
func hostCounters(m *core.Manager) counterSet {
	c := counterSet{}
	for k, v := range m.Obs().Registry.Snapshot("").Counters {
		if strings.HasPrefix(k, "ihnet_sched_decisions_total{") {
			k = "ihnet_sched_decisions_total"
		}
		c[k] += float64(v)
	}
	c["simtime.events"] = float64(m.Engine().Processed)
	ss := m.Fabric().SolverStats()
	c["fabric.solves"] = float64(ss.Solves)
	c["fabric.noop_solves"] = float64(ss.NoopSolves)
	c["fabric.flows_solved"] = float64(ss.FlowsSolved)
	c["fabric.flows_skipped"] = float64(ss.FlowsSkipped)
	if p := m.Telemetry(); p != nil {
		c["telemetry.points"] = float64(p.Overhead().Points)
		c["telemetry.dropped"] = float64(p.Store().Dropped())
	}
	if t := m.Obs().Tracer; t != nil {
		c["obs.trace_events"] = float64(t.Total())
	}
	if b := m.Obs().Bus; b != nil {
		c["obs.bus_published"] = float64(b.Seq())
	}
	return c
}

// fleetCounters sums every host's counters and adds the fleet
// registry, the sharded runner's stats and the fleet bus.
func fleetCounters(fs *fleetStack) counterSet {
	c := counterSet{}
	for _, h := range fs.fl.Hosts() {
		c.add(hostCounters(h.Mgr))
		c["snap.journal_entries"] += float64(h.Sess.Journal().Len())
	}
	for k, v := range fs.fsrv.Registry().Snapshot("").Counters {
		c[k] += float64(v)
	}
	st := fs.fsrv.Runner().Stats()
	c["fleet.rollup_cache_hits"] = float64(st.RollupCacheHits)
	c["fleet.rollup_cache_misses"] = float64(st.RollupCacheMisses)
	c["fleet.outer_epochs"] = float64(st.OuterEpochs)
	if b := fs.fsrv.Runner().Bus(); b != nil {
		c["obs.bus_published"] += float64(b.Seq())
	}
	return c
}

// layerMetric names one per-layer metric and its unit. The list is the
// per_layer section of BENCHMARK.json, in order.
type layerMetric struct{ Name, Unit string }

var layerCatalog = []layerMetric{
	{"apiclient.rtt_ms", "ms"},
	{"apiclient.self_ms", "ms"},
	{"httpapi.handler_ms", "ms"},
	{"httpapi.net_ms", "ms"},
	{"httpapi.self_ms", "ms"},
	{"httpapi.resp_bytes", "B"},
	{"store.append_us_p50", "us"},
	{"store.append_us_p99", "us"},
	{"store.appends", "count"},
	{"store.self_ms", "ms"},
	{"store.wal_bytes_per_entry", "B"},
	{"store.snapshot_ms", "ms"},
	{"store.chunks_reused_ratio", "ratio"},
	{"store.chunks", "count"},
	{"store.recover_s", "s"},
	{"store.read_decode_s", "s"},
	{"store.replayed_records", "count"},
	{"snap.replay_s", "s"},
	{"snap.entries_per_mutation", "ratio"},
	{"snap.mutations", "count"},
	{"core.admissions", "count"},
	{"core.rejections", "count"},
	{"sched.decisions", "count"},
	{"arbiter.adjustments", "count"},
	{"fleet.place_ms", "ms"},
	{"fleet.advance_ms", "ms"},
	{"fleet.epochs", "count"},
	{"fleet.straggler_ratio", "ratio"},
	{"fleet.hosts_advanced", "count"},
	{"fleet.rollup_ms", "ms"},
	{"fleet.rollup_cache_hit_ratio", "ratio"},
	{"fleet.rollup_lookups", "count"},
	{"simtime.events_per_host_ms", "1/ms"},
	{"simtime.host_ms", "ms"},
	{"anomaly.probes_per_host_ms", "1/ms"},
	{"anomaly.rounds", "count"},
	{"fabric.solves", "count"},
	{"fabric.noop_ratio", "ratio"},
	{"fabric.solve_passes", "count"},
	{"fabric.flows_solved", "count"},
	{"fabric.flows_skipped_ratio", "ratio"},
	{"fabric.flows_considered", "count"},
	{"telemetry.points", "count"},
	{"telemetry.dropped", "count"},
	{"obs.bus_published", "count"},
	{"obs.sse_delivered", "count"},
	{"obs.sse_dropped", "count"},
	{"obs.trace_events", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// ratio is a/b, 0 when b is 0 (the base is reported next to it).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics of a traced pass. untraced
// and traced are the end-to-end metrics of the two passes; their gap is
// the tracing overhead.
func perLayer(p *pass, tr *tracer, untraced, traced map[string]metric) map[string]metric {
	c := p.counters
	d := p.d
	out := map[string]metric{}
	set := func(name string, v float64) {
		if math.IsNaN(v) {
			v = 0 // the layer saw no spans on this workload
		}
		for _, lm := range layerCatalog {
			if lm.Name == name {
				out[name] = metric{Value: v, Unit: lm.Unit}
				return
			}
		}
		panic("e2ebench: metric not in layerCatalog: " + name)
	}
	ops := float64(d.attempted)
	self := tr.selfTimes()
	selfPerOp := func(layer string) float64 {
		if lt := self[layer]; lt != nil {
			return ms(lt.self) / ops
		}
		return 0
	}

	rtt, handler, netT, hself := tr.requestSplit()
	set("apiclient.rtt_ms", quantile(rtt, 0.5))
	set("apiclient.self_ms", selfPerOp("apiclient"))
	set("httpapi.handler_ms", quantile(handler, 0.5))
	set("httpapi.net_ms", quantile(netT, 0.5))
	set("httpapi.self_ms", quantile(hself, 0.5))
	set("httpapi.resp_bytes", ratio(float64(d.respBytes), ops))

	appends := tr.byName("store", "store.append")
	set("store.append_us_p50", 1e3*quantile(appends, 0.5))
	set("store.append_us_p99", 1e3*quantile(appends, 0.99))
	set("store.appends", float64(len(appends)))
	set("store.self_ms", selfPerOp("store"))
	set("store.wal_bytes_per_entry", ratio(float64(p.walBytes), float64(p.walRecords)))
	set("store.snapshot_ms", mean(tr.byName("httpapi", "POST /api/v1/snapshot")))
	chunks := c["ihnet_store_chunks_reused_total"] + c["ihnet_store_chunks_written_total"]
	set("store.chunks_reused_ratio", ratio(c["ihnet_store_chunks_reused_total"], chunks))
	set("store.chunks", chunks)
	recoverS, replayS := median(p.layerS["store.recover_s"]), median(p.layerS["snap.replay_s"])
	set("store.recover_s", recoverS)
	set("snap.replay_s", replayS)
	set("store.read_decode_s", recoverS-replayS)
	set("store.replayed_records", median(p.layerS["store.replayed_records"]))

	mutations := float64(p.mutations)
	set("snap.entries_per_mutation", ratio(c["snap.journal_entries"], mutations))
	set("snap.mutations", mutations)
	set("core.admissions", c["ihnet_core_admissions_total"])
	set("core.rejections", c["ihnet_core_rejections_total"])
	set("sched.decisions", c["ihnet_sched_decisions_total"])
	set("arbiter.adjustments", c["ihnet_arbiter_adjustments_total"])

	set("fleet.place_ms", quantile(tr.byName("httpapi", "POST /api/v1/fleet/tenants"), 0.5))
	set("fleet.advance_ms", quantile(tr.byName("httpapi", "POST /api/v1/fleet/advance"), 0.5))
	set("fleet.epochs", c["ihnet_fleet_epochs_total"])
	set("fleet.straggler_ratio", ratio(c["ihnet_fleet_straggler_epochs_total"], c["ihnet_fleet_epochs_total"]))
	set("fleet.hosts_advanced", c["ihnet_fleet_hosts_advanced_total"])
	set("fleet.rollup_ms", quantile(tr.byName("httpapi", "GET /api/v1/fleet/metrics/rollup"), 0.5))
	lookups := c["fleet.rollup_cache_hits"] + c["fleet.rollup_cache_misses"]
	set("fleet.rollup_cache_hit_ratio", ratio(c["fleet.rollup_cache_hits"], lookups))
	set("fleet.rollup_lookups", lookups)

	hostMs := c["simtime.host_ms"]
	set("simtime.host_ms", hostMs)
	set("simtime.events_per_host_ms", ratio(c["simtime.events"], hostMs))
	set("anomaly.probes_per_host_ms", ratio(c["ihnet_anomaly_probes_total"], hostMs))
	set("anomaly.rounds", c["ihnet_anomaly_rounds_total"])
	passes := c["fabric.solves"] + c["fabric.noop_solves"]
	set("fabric.solves", c["fabric.solves"])
	set("fabric.noop_ratio", ratio(c["fabric.noop_solves"], passes))
	set("fabric.solve_passes", passes)
	considered := c["fabric.flows_solved"] + c["fabric.flows_skipped"]
	set("fabric.flows_solved", c["fabric.flows_solved"])
	set("fabric.flows_skipped_ratio", ratio(c["fabric.flows_skipped"], considered))
	set("fabric.flows_considered", considered)
	set("telemetry.points", c["telemetry.points"])
	set("telemetry.dropped", c["telemetry.dropped"])

	set("obs.bus_published", c["obs.bus_published"])
	set("obs.sse_delivered", float64(p.sseEvents))
	set("obs.sse_dropped", c["obs_sse_dropped_total"])
	set("obs.trace_events", c["obs.trace_events"])

	set("runtime.allocs_per_op", ratio(float64(p.mem.mallocs), ops))
	set("runtime.alloc_bytes_per_op", ratio(float64(p.mem.bytes), ops))
	set("runtime.gc_cycles", float64(p.mem.gcs))
	set("runtime.gc_pause_ms", float64(p.mem.pauseNs)/1e6)

	set("trace.spans", float64(len(tr.spans)))
	set("trace.overhead_pct", 100*(untraced["ops_per_s"].Value/traced["ops_per_s"].Value-1))
	return out
}

// layerReport renders the traced pass: self time per layer next to the
// layer's per-layer metrics.
func layerReport(tr *tracer, layers map[string]metric) []string {
	var out []string
	self := tr.selfTimes()
	out = append(out, "# layer        spans     total_ms      self_ms  self_share  metrics")
	var all float64
	for _, lt := range self {
		all += ms(lt.self)
	}
	names := sortedKeys(self)
	// Layers with spans first, then the span-less ones (their time is
	// inside the handler's self time).
	for _, l := range []string{"core", "sched", "arbiter", "fabric", "simtime", "anomaly", "telemetry", "obs", "fleet", "snap", "runtime", "trace"} {
		if _, ok := self[l]; !ok {
			names = append(names, l)
		}
	}
	for _, l := range names {
		var metrics []string
		for _, lm := range layerCatalog {
			if strings.HasPrefix(lm.Name, l+".") {
				m := layers[lm.Name]
				metrics = append(metrics, fmt.Sprintf("%s=%s%s", strings.TrimPrefix(lm.Name, l+"."), fmtNum(m.Value), unitSuffix(m.Unit)))
			}
		}
		lt := self[l]
		if lt == nil {
			out = append(out, fmt.Sprintf("# %-10s %7s %12s %12s %11s  %s", l, "-", "-", "-", "-", strings.Join(metrics, " ")))
			continue
		}
		out = append(out, fmt.Sprintf("# %-10s %7d %12.3f %12.3f %10.1f%%  %s", l, lt.spans,
			ms(lt.total), ms(lt.self), 100*ratio(ms(lt.self), all), strings.Join(metrics, " ")))
	}
	return out
}

// overheadReport compares the untraced and traced end-to-end numbers.
func overheadReport(untraced, traced map[string]metric) []string {
	out := []string{"# tracing overhead (traced vs untraced pass)"}
	for _, k := range sortedKeys(untraced) {
		u, t := untraced[k].Value, traced[k].Value
		out = append(out, fmt.Sprintf("#   %-18s untraced %12.4f traced %12.4f  %+7.1f%%", k, u, t, 100*ratio(t-u, u)))
	}
	return out
}

func fmtNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// unitSuffix renders a unit after a value, bracketed so "1/ms" cannot
// read as more digits; counts and ratios go bare.
func unitSuffix(u string) string {
	switch u {
	case "count", "ratio":
		return ""
	}
	return "[" + u + "]"
}
