package fleet

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// ShardConfig tunes the fleet execution engine.
type ShardConfig struct {
	// Shards is the number of independent shard groups. Zero means
	// AutoShards(len(hosts)); the count is clamped so no shard is
	// empty. One shard degenerates to a single barrier over the whole
	// fleet.
	Shards int
	// Workers is the worker-pool size per shard. Zero spreads
	// GOMAXPROCS across the shards (at least one per shard); one
	// advances each shard's hosts serially.
	Workers int
	// Epoch is the inner barrier interval: within a shard every live
	// host is advanced to the same virtual-time boundary before any
	// host starts the next interval, so fleet-level reads (pressure,
	// rebalance, migration) always observe hosts at one instant. Zero
	// means 1ms.
	Epoch simtime.Duration
	// Registry receives engine metrics. Nil works (metrics are kept
	// but not exported), matching the obs package's contract.
	Registry *obs.Registry
	// Bus, when set, receives every host's forwarded trace events
	// (tagged with the host name), per-shard inner epoch events
	// (Subject "shard-NNN"), quarantine events, and the outer fleet
	// epoch event (Subject "fleet") — one SSE subscription observes
	// the whole fleet.
	Bus *obs.Bus
}

// outerEvery is how many inner epochs make one outer epoch — the only
// point where shards synchronize.
const outerEvery = 4

// ShardReport summarizes one ShardedRunner.RunFor call.
type ShardReport struct {
	// OuterEpochs is the number of outer barriers crossed.
	OuterEpochs int
	// Epochs is the number of inner barriers every live shard crossed
	// (summed over outer epochs).
	Epochs int
	// Target is the virtual time the fleet was asked to reach.
	Target simtime.Time
	// HostsAdvanced counts host-epoch advances across all shards.
	HostsAdvanced int
	// Failed maps quarantined host names to why, fleet-wide
	// (including hosts quarantined in earlier RunFor calls).
	Failed map[string]error
	// Aborted is true when the context was canceled before Target.
	// Each shard stops at its own last completed inner barrier — never
	// mid-epoch; the next RunFor realigns everyone at the first outer
	// barrier.
	Aborted bool
}

// ShardStat is one shard's view for the stats endpoint.
type ShardStat struct {
	Index         int    `json:"index"`
	Hosts         int    `json:"hosts"`
	Quarantined   int    `json:"quarantined"`
	VirtualTimeNs int64  `json:"virtual_time_ns"`
	InnerEpochs   uint64 `json:"inner_epochs"`
	HostsAdvanced uint64 `json:"hosts_advanced"`
	// RollupRefolds counts how many times this shard's cached
	// snapshot was recomputed (cache misses attributed to it).
	RollupRefolds uint64 `json:"rollup_refolds"`
	// Dirty reports whether the shard has advanced or mutated since
	// its snapshot was last folded.
	Dirty bool `json:"dirty"`
}

// ShardStats is the fleet-wide sharding summary.
type ShardStats struct {
	Shards            []ShardStat `json:"shards"`
	OuterEpochs       uint64      `json:"outer_epochs"`
	InnerEpochNs      int64       `json:"inner_epoch_ns"`
	OuterEvery        int         `json:"outer_every"`
	WorkersPerShard   int         `json:"workers_per_shard"`
	RollupCacheHits   uint64      `json:"rollup_cache_hits"`
	RollupCacheMisses uint64      `json:"rollup_cache_misses"`
}

// AutoShards picks a shard count for n hosts: one shard per ~64
// hosts, clamped to [1, 128]. 64 keeps a shard's fold and epoch work
// cache-resident while leaving enough shards at 10k hosts (157 capped
// to 128) for the outer loop to spread across cores.
func AutoShards(n int) int {
	s := (n + 63) / 64
	if s < 1 {
		s = 1
	}
	if s > 128 {
		s = 128
	}
	return s
}

// shard is one independent shard group: a contiguous name-ordered
// slice of the fleet with its own virtual clock, inner epoch loop and
// quarantine set.
type shard struct {
	index int
	hosts []*Host
	// subject is the Subject of the shard's inner epoch events.
	subject string
	// failed maps quarantined hosts to why; they sit out every epoch.
	failed map[string]error

	// live and results are the epoch loop's scratch, reused across
	// epochs. Workers write results into disjoint slots indexed like
	// live, so the merge is free of both locks and completion-order
	// nondeterminism.
	live    []*Host
	results []hostResult
	// run is the shard's outcome in the current outer epoch.
	run shardRun

	// dirty is set after the shard advances or one of its hosts is
	// mutated, and cleared when Rollup refolds the shard. Atomic so
	// the epoch goroutines and lock-free scrape handlers never race.
	dirty atomic.Bool
	// acc is the shard's fold scratch and cached its folded snapshot,
	// valid once cacheValid. All three are guarded by
	// ShardedRunner.rollupMu.
	acc        *obs.Accumulator
	cached     obs.Snapshot
	cacheValid bool

	innerEpochs   atomic.Uint64
	hostsAdvanced atomic.Uint64
	refolds       atomic.Uint64
}

// hostResult is one host's outcome for one inner epoch.
type hostResult struct {
	// wall is how long the advance took in wall-clock time — the
	// straggler signal.
	wall time.Duration
	// err is non-nil when the host's simulation panicked or refused
	// the advance; the host is then quarantined.
	err error
}

// hasLive reports whether any of the shard's hosts is not quarantined.
func (sh *shard) hasLive() bool {
	return len(sh.failed) < len(sh.hosts)
}

// now returns the shard's virtual time: the furthest live host's
// clock. Between RunFor calls all live hosts agree on it (they parked
// at the same barrier); quarantined hosts may lag behind.
func (sh *shard) now() simtime.Time {
	var now simtime.Time
	for _, h := range sh.hosts {
		if _, bad := sh.failed[h.Name]; bad {
			continue
		}
		if t := h.Mgr.Engine().Now(); t > now {
			now = t
		}
	}
	return now
}

// liveHosts returns the shard's non-quarantined hosts in name order,
// in the reused scratch slice.
func (sh *shard) liveHosts() []*Host {
	sh.live = sh.live[:0]
	for _, h := range sh.hosts {
		if _, bad := sh.failed[h.Name]; !bad {
			sh.live = append(sh.live, h)
		}
	}
	return sh.live
}

// fold refolds the shard's host registries, in name order, into its
// scratch accumulator: counters sum, gauges keep the last host's value
// tagged with its source, histograms merge bucket-wise. Quarantined
// hosts are included — their metrics still describe real state,
// frozen at quarantine time. Reset zeroes only occupied watermark
// ranges, so scrape allocation does not grow with host count. The
// caller holds ShardedRunner.rollupMu.
func (sh *shard) fold() obs.Snapshot {
	sh.acc.Reset()
	for _, h := range sh.hosts {
		sh.acc.AddRegistry(h.Mgr.Obs().Registry, h.Name)
	}
	return sh.acc.Snapshot()
}

// ShardedRunner is the fleet execution engine. It advances a fleet as
// S independent shard groups, each with its own worker pool, virtual
// clock, and inner epoch loop, synchronized only at a coarse outer
// epoch (outer = 4 inner epochs). Within a shard every live host
// crosses each inner barrier before any host starts the next; across
// shards only the outer barrier is shared, so shard i never waits on
// shard j's stragglers between inner epochs.
//
// Determinism survives sharding because hosts are independent
// simulations driven to absolute virtual-time targets: the inner
// barrier grid (start + k*Epoch) is the same no matter how hosts are
// partitioned or how many workers advance them, so each host's
// advance sequence — hence its journal and replay hash — is identical
// across shard and worker counts. The roll-up merge visits shards in
// index order over a contiguous name-ordered partition, which makes
// last-write-wins gauge folds byte-identical to one name-ordered fold
// over the whole fleet.
//
// A ShardedRunner is not safe for concurrent RunFor calls; callers
// (the HTTP fleet server, the daemon's auto-advance loop) serialize
// them. Rollup and MarkDirty are safe to call concurrently with a
// running RunFor (they are what the lock-free scrape routes use);
// Stats, Now, Failed and the quarantine calls read or write
// quarantine maps and so need the same external serialization against
// RunFor — the HTTP layer's lock provides it.
type ShardedRunner struct {
	shards  []*shard
	shardOf map[string]*shard
	inner   simtime.Duration
	workers int
	bus     *obs.Bus
	// due is RunFor's scratch: the shards with work in an outer epoch.
	due []*shard

	outerEpochs atomic.Uint64

	// rollupMu guards the merge scratch and every shard's fold scratch
	// and cached snapshot. The scrape routes are served without the
	// fleet lock, so the roll-up path must carry its own
	// synchronization.
	rollupMu    sync.Mutex
	mergeAcc    *obs.Accumulator
	merged      obs.Snapshot
	mergedValid bool

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	mEpochs        *obs.Counter
	mHostsAdvanced *obs.Counter
	mHostFailures  *obs.Counter
	mStragglers    *obs.Counter
	hEpochSeconds  *obs.Histogram
	hStragglerX    *obs.Histogram
	mOuterEpochs   *obs.Counter
	mCacheHits     *obs.Counter
	mCacheMisses   *obs.Counter
}

// NewShardedRunner partitions the fleet's name-sorted hosts into
// contiguous shard groups. Hosts added to the fleet afterwards are not
// picked up (nor wired to the bus); build the runner last.
func NewShardedRunner(f *Fleet, cfg ShardConfig) *ShardedRunner {
	hosts := f.Hosts()
	n := len(hosts)
	s := cfg.Shards
	if s <= 0 {
		s = AutoShards(n)
	}
	if n > 0 && s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	inner := cfg.Epoch
	if inner <= 0 {
		inner = simtime.Millisecond
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = max(runtime.GOMAXPROCS(0)/s, 1)
	}
	if cfg.Bus != nil {
		for _, h := range hosts {
			h.Mgr.Obs().Bus.ForwardTo(cfg.Bus, h.Name)
		}
	}
	reg := cfg.Registry
	sr := &ShardedRunner{
		shardOf:  make(map[string]*shard, n),
		inner:    inner,
		workers:  workers,
		bus:      cfg.Bus,
		mergeAcc: obs.NewAccumulator("fleet"),
		mEpochs: reg.Counter("ihnet_fleet_epochs_total",
			"Epoch barriers crossed by the fleet runner."),
		mHostsAdvanced: reg.Counter("ihnet_fleet_hosts_advanced_total",
			"Host-epoch advances performed by the fleet runner."),
		mHostFailures: reg.Counter("ihnet_fleet_host_failures_total",
			"Hosts quarantined after a mid-epoch failure."),
		mStragglers: reg.Counter("ihnet_fleet_straggler_epochs_total",
			"Epochs whose slowest host took more than twice the mean."),
		hEpochSeconds: reg.Histogram("ihnet_fleet_epoch_duration_seconds",
			"Wall-clock time per fleet epoch (all hosts to the barrier)."),
		hStragglerX: reg.Histogram("ihnet_fleet_straggler_ratio",
			"Slowest host's wall time over the epoch mean."),
		mOuterEpochs: reg.Counter("ihnet_fleet_outer_epochs_total",
			"Outer epoch barriers crossed by the sharded fleet runner."),
		mCacheHits: reg.Counter("ihnet_fleet_rollup_cache_hits_total",
			"Shard roll-up snapshots served from cache."),
		mCacheMisses: reg.Counter("ihnet_fleet_rollup_cache_misses_total",
			"Shard roll-up snapshots refolded because the shard was dirty."),
	}
	for i := 0; i < s; i++ {
		sh := &shard{
			index:   i,
			hosts:   hosts[i*n/s : (i+1)*n/s],
			subject: fmt.Sprintf("shard-%03d", i),
			failed:  make(map[string]error),
			acc:     obs.NewAccumulator("fleet"),
		}
		sh.dirty.Store(true) // nothing cached yet
		for _, h := range sh.hosts {
			sr.shardOf[h.Name] = sh
		}
		sr.shards = append(sr.shards, sh)
	}
	return sr
}

// Shards returns the shard count.
func (sr *ShardedRunner) Shards() int { return len(sr.shards) }

// Workers returns the per-shard worker-pool size.
func (sr *ShardedRunner) Workers() int { return sr.workers }

// Epoch returns the inner barrier interval.
func (sr *ShardedRunner) Epoch() simtime.Duration { return sr.inner }

// OuterEvery returns how many inner epochs make one outer epoch.
func (sr *ShardedRunner) OuterEvery() int { return outerEvery }

// Bus returns the fleet-level event bus, if configured.
func (sr *ShardedRunner) Bus() *obs.Bus { return sr.bus }

// Now returns the fleet's virtual time: the furthest shard clock.
// Between RunFor calls every shard with live hosts agrees on it.
func (sr *ShardedRunner) Now() simtime.Time {
	var now simtime.Time
	for _, sh := range sr.shards {
		now = max(now, sh.now())
	}
	return now
}

// Failed returns the quarantined hosts and why, fleet-wide.
func (sr *ShardedRunner) Failed() map[string]error {
	out := make(map[string]error)
	for _, sh := range sr.shards {
		for k, v := range sh.failed {
			out[k] = v
		}
	}
	return out
}

// Quarantine excludes a host from subsequent epochs, as if it had
// failed mid-epoch — the operator-initiated form of the engine's panic
// quarantine, used to fence a suspect host without stopping the fleet.
// The host's clock freezes where it is; it keeps its state and
// journal, and the other shards never notice.
func (sr *ShardedRunner) Quarantine(name string, reason error) error {
	sh := sr.shardOf[name]
	if sh == nil {
		return fmt.Errorf("fleet: unknown host %q", name)
	}
	if _, ok := sh.failed[name]; ok {
		return fmt.Errorf("fleet: host %q already quarantined", name)
	}
	if reason == nil {
		reason = fmt.Errorf("fleet: host %q quarantined by operator", name)
	}
	sr.quarantine(sh, name, reason, sh.now())
	return nil
}

// quarantine records a host's failure, counts it and announces it on
// the bus at virtual time at.
func (sr *ShardedRunner) quarantine(sh *shard, name string, reason error, at simtime.Time) {
	sh.failed[name] = reason
	sr.mHostFailures.Inc()
	sr.bus.Publish(obs.Event{
		Kind: obs.KindHostQuarantine, Virtual: at,
		Subject: name, Detail: reason.Error(),
	})
}

// Unquarantine readmits a host to its shard's epoch loop. Its lagging
// clock catches up at the next inner barrier (every epoch drives all
// live hosts to one shared absolute target). Returns false when the
// host was not quarantined.
func (sr *ShardedRunner) Unquarantine(name string) bool {
	sh := sr.shardOf[name]
	if sh == nil {
		return false
	}
	if _, ok := sh.failed[name]; !ok {
		return false
	}
	delete(sh.failed, name)
	return true
}

// MarkDirty records that the named host's metrics changed outside the
// epoch loop (placement, eviction, migration, snapshot, remediation),
// so the next Rollup refolds its shard. Returns false for unknown
// hosts.
func (sr *ShardedRunner) MarkDirty(name string) bool {
	sh := sr.shardOf[name]
	if sh == nil {
		return false
	}
	sh.dirty.Store(true)
	return true
}

// MarkAllDirty invalidates every shard's cached snapshot — the big
// hammer for fleet-wide mutations (rebalance, remedy sweeps).
func (sr *ShardedRunner) MarkAllDirty() {
	for _, sh := range sr.shards {
		sh.dirty.Store(true)
	}
}

// shardRun is one shard's part of one outer epoch.
type shardRun struct {
	epochs, advanced int
	aborted          bool
}

// RunFor advances every live host by d: the outer loop walks outer
// barriers (4 inner epochs apart) and, for each, runs all shards
// concurrently to the barrier — each shard crossing its inner
// barriers independently on its own worker pool. Hosts whose clocks
// lag their shard (a readmitted host, a restored one) catch up at the
// first inner barrier. Shards with no live hosts are skipped (their
// clocks stay frozen). On context cancellation each shard stops
// cleanly at its last completed inner barrier — no host is left
// mid-epoch.
func (sr *ShardedRunner) RunFor(ctx context.Context, d simtime.Duration) (ShardReport, error) {
	if d <= 0 {
		return ShardReport{}, fmt.Errorf("fleet: non-positive run duration %v", d)
	}
	start := sr.Now()
	target := start.Add(d)
	outerDur := outerEvery * sr.inner
	rep := ShardReport{Target: target}
	for k := 1; ; k++ {
		if ctx.Err() != nil {
			rep.Aborted = true
			break
		}
		barrier := min(start.Add(simtime.Duration(k)*outerDur), target)
		sr.step(ctx, barrier)
		inner, advanced := 0, 0
		for _, sh := range sr.shards {
			inner = max(inner, sh.run.epochs)
			advanced += sh.run.advanced
			rep.Aborted = rep.Aborted || sh.run.aborted
		}
		rep.Epochs += inner
		rep.HostsAdvanced += advanced
		if rep.Aborted {
			break
		}
		rep.OuterEpochs++
		sr.outerEpochs.Add(1)
		sr.mOuterEpochs.Inc()
		sr.bus.Publish(obs.Event{
			Kind: obs.KindFleetEpoch, Virtual: barrier,
			Subject: "fleet", Value: float64(advanced),
		})
		if barrier == target {
			break
		}
	}
	rep.Failed = sr.Failed()
	if rep.Aborted {
		return rep, ctx.Err()
	}
	return rep, nil
}

// step runs every shard that has live hosts behind the outer barrier
// to it, recording each shard's outcome in its run field. Shards run
// concurrently; a lone due shard runs on the caller's goroutine, so a
// one-shard fleet pays no goroutine or WaitGroup allocation per outer
// epoch.
func (sr *ShardedRunner) step(ctx context.Context, barrier simtime.Time) {
	due := sr.due[:0]
	for _, sh := range sr.shards {
		sh.run = shardRun{}
		if sh.hasLive() && barrier > sh.now() {
			due = append(due, sh)
		}
	}
	sr.due = due
	if len(due) == 1 {
		due[0].run = sr.advance(ctx, due[0], barrier)
		return
	}
	var wg sync.WaitGroup
	for _, sh := range due {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh.run = sr.advance(ctx, sh, barrier)
		}()
	}
	wg.Wait()
}

// advance drives one shard's live hosts to target across the inner
// barriers start+k*Epoch, where start is the shard's clock, stopping
// at the last completed barrier when ctx is canceled.
func (sr *ShardedRunner) advance(ctx context.Context, sh *shard, target simtime.Time) shardRun {
	var run shardRun
	start := sh.now()
	for k := 1; ; k++ {
		if ctx.Err() != nil {
			run.aborted = true
			break
		}
		barrier := min(start.Add(simtime.Duration(k)*sr.inner), target)
		ok := sr.runEpoch(sh, barrier)
		run.epochs++
		run.advanced += ok
		sr.mEpochs.Inc()
		sr.mHostsAdvanced.Add(uint64(ok))
		if barrier == target {
			break
		}
	}
	sh.innerEpochs.Add(uint64(run.epochs))
	sh.hostsAdvanced.Add(uint64(run.advanced))
	if run.advanced > 0 {
		sh.dirty.Store(true)
	}
	return run
}

// runEpoch drives every live host of the shard to the barrier on the
// worker pool, quarantines the hosts that failed (in name order), and
// returns how many advanced without error.
func (sr *ShardedRunner) runEpoch(sh *shard, barrier simtime.Time) int {
	live := sh.liveHosts()
	results := slices.Grow(sh.results[:0], len(live))[:len(live)]
	sh.results = results
	epochStart := time.Now()
	if workers := min(sr.workers, len(live)); workers <= 1 {
		for i, h := range live {
			results[i] = advanceHost(h, barrier)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i] = advanceHost(live[i], barrier)
				}
			}()
		}
		for i := range live {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	ok := 0
	var slowest, total time.Duration
	for i, res := range results {
		if res.err != nil {
			sr.quarantine(sh, live[i].Name, res.err, barrier)
			continue
		}
		ok++
		total += res.wall
		slowest = max(slowest, res.wall)
	}
	epochWall := time.Since(epochStart)
	sr.hEpochSeconds.Observe(epochWall.Seconds())
	sr.bus.Publish(obs.Event{
		Kind: obs.KindFleetEpoch, Virtual: barrier,
		Subject: sh.subject, Value: float64(ok), WallDur: epochWall,
	})
	if ok > 1 {
		if mean := total / time.Duration(ok); mean > 0 {
			ratio := float64(slowest) / float64(mean)
			sr.hStragglerX.Observe(ratio)
			if ratio > 2 {
				sr.mStragglers.Inc()
			}
		}
	}
	return ok
}

// advanceHost drives one host to the barrier, converting panics in the
// host's simulation into a per-host error so one broken host cannot
// take down the epoch (or the process).
func advanceHost(h *Host, barrier simtime.Time) (res hostResult) {
	t0 := time.Now()
	defer func() {
		res.wall = time.Since(t0)
		if p := recover(); p != nil {
			res.err = fmt.Errorf("fleet: host %s failed mid-epoch: %v", h.Name, p)
		}
	}()
	res.err = h.advanceTo(barrier)
	return res
}

// Rollup returns the fleet snapshot, hierarchically: each dirty shard
// is refolded (O(its hosts)) into its cached per-shard snapshot, then
// the S shard snapshots merge in shard order. Hosts are thus visited
// in name order, so equal per-host metrics give byte-identical
// roll-ups regardless of shard or worker count. A scrape between
// advances touches no host registry at all — it reuses every shard's
// cache and, when nothing is dirty, returns the cached merge directly.
// Cost is O(dirty shards x shard size + S), not O(hosts). It reads
// only atomics and per-metric locks, so it is safe to call while the
// engine is mid-epoch (scrapes observe a torn but
// monitoring-consistent view, same as single-host /metrics).
//
// The returned snapshot is shared with the cache: treat it as
// read-only.
func (sr *ShardedRunner) Rollup() obs.Snapshot {
	sr.rollupMu.Lock()
	defer sr.rollupMu.Unlock()
	misses := 0
	for _, sh := range sr.shards {
		if wasDirty := sh.dirty.Swap(false); sh.cacheValid && !wasDirty {
			continue
		}
		sh.cached = sh.fold()
		sh.cacheValid = true
		sh.refolds.Add(1)
		misses++
	}
	hits := len(sr.shards) - misses
	sr.cacheHits.Add(uint64(hits))
	sr.mCacheHits.Add(uint64(hits))
	sr.cacheMisses.Add(uint64(misses))
	sr.mCacheMisses.Add(uint64(misses))
	if misses == 0 && sr.mergedValid {
		return sr.merged
	}
	sr.mergeAcc.Reset()
	for _, sh := range sr.shards {
		sr.mergeAcc.AddSnapshot(sh.cached)
	}
	sr.merged = sr.mergeAcc.Snapshot()
	sr.mergedValid = true
	return sr.merged
}

// Stats reports per-shard and cache state for the stats endpoint.
func (sr *ShardedRunner) Stats() ShardStats {
	st := ShardStats{
		Shards:            make([]ShardStat, 0, len(sr.shards)),
		OuterEpochs:       sr.outerEpochs.Load(),
		InnerEpochNs:      int64(sr.inner),
		OuterEvery:        outerEvery,
		WorkersPerShard:   sr.workers,
		RollupCacheHits:   sr.cacheHits.Load(),
		RollupCacheMisses: sr.cacheMisses.Load(),
	}
	for _, sh := range sr.shards {
		st.Shards = append(st.Shards, ShardStat{
			Index:         sh.index,
			Hosts:         len(sh.hosts),
			Quarantined:   len(sh.failed),
			VirtualTimeNs: int64(sh.now()),
			InnerEpochs:   sh.innerEpochs.Load(),
			HostsAdvanced: sh.hostsAdvanced.Load(),
			RollupRefolds: sh.refolds.Load(),
			Dirty:         sh.dirty.Load(),
		})
	}
	return st
}
