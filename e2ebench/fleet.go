package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/snap"
)

const (
	fleetAdvanceUs  = 1000
	placesPerRound  = 4
	fleetCheckHosts = 4
	fleetReplays    = 21
	// fleetBlocks: a fleet run has few rounds, so fewer, larger blocks.
	fleetBlocks = 4
)

type fleetHostResp struct {
	Name          string  `json:"name"`
	VirtualTimeNs int64   `json:"virtual_time_ns"`
	Pressure      float64 `json:"pressure"`
	Tenants       int     `json:"tenants"`
}

// runFleetAdvance: synthetic recording hosts on the sharded runner with
// default shards and workers, no store, one closed-loop client. Each
// round advances the fleet 1 ms, places and evicts four tenants, and
// reads the host list, the roll-up and /metrics. After the loop, four
// seeded hosts' state hashes must equal replays of their journals
// (timed: recover_s), the fleet hash is recorded, and the first
// block's rounds on a fresh fleet must reach the fleet hash the run
// had after them.
func runFleetAdvance(cfg config, work string, tr *tracer, setups int) (*pass, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	places := make([]admitReq, cfg.Rounds*placesPerRound)
	for i := range places {
		places[i] = admitReq{Tenant: fmt.Sprintf("p%d", i), Targets: genTargets(rng, 1)}
	}
	// Seeded picks; the first is replaced by the host that took the
	// first placement, so at least one checked journal holds fleet
	// mutations.
	checkHosts := make([]int, fleetCheckHosts)
	for i := range checkHosts {
		checkHosts[i] = rng.Intn(cfg.Hosts)
	}
	placedOn := ""

	var fs *fleetStack
	var setupS []float64
	for i := 0; i < setups; i++ {
		if fs != nil {
			fs.close()
			fs = nil
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if fs, err = bootFleet(cfg.Hosts, tr); err != nil {
			return nil, fmt.Errorf("fleet boot: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			fs.close()
		}
	}()

	d := newDriver(fs.client, fs.base, cfg.Workload, tr)
	p := newPass(d, cfg.Hosts)
	p.setupS = setupS
	cl := fs.client
	before := fleetCounters(fs)
	mem := markMem()
	every := blockEvery(cfg.Rounds, fleetBlocks)
	// The fleet hash after the first block, taken between blocks so it
	// is not timed; the repeat check below reaches it again on a fresh
	// fleet.
	prefix, prefixHash := cfg.Rounds, ""
	d.cut()
	for r := 0; r < cfg.Rounds; r++ {
		if r > 0 && r%every == 0 {
			if prefixHash == "" {
				d.stop()
				prefix, prefixHash = r, fleetHash(d)
			}
			d.cut()
		}
		host := fleetRound(d, cfg.Hosts, places[r*placesPerRound:(r+1)*placesPerRound])
		if placedOn == "" {
			placedOn = host
		}
	}
	d.stop()
	p.mem = mem.since()
	p.counters = fleetCounters(fs).minus(before)
	p.counters["simtime.host_ms"] = d.hostMs
	p.mutations = 2*len(places) + cfg.Rounds // place, evict; advance
	p.heapBytes = liveHeap()

	finalHash := fleetHash(d)
	if prefixHash == "" {
		prefixHash = finalHash
	}
	if cfg.Tamper == "hash" {
		prefixHash = tamper(prefixHash)
	}
	p.hashes["fleet_state"] = finalHash
	hosts := fs.fl.Hosts()
	for i, h := range hosts {
		if h.Name == placedOn {
			checkHosts[0] = i
		}
	}
	type served struct {
		name, hash string
		cfg        snap.Config
		raw        []byte
	}
	var checked []served
	for _, i := range checkHosts {
		s := served{name: hosts[i].Name, cfg: hosts[i].Sess.Config()}
		var h hashResp
		d.call(kOther, "host-hash", func(ctx context.Context) error {
			return cl.Get(ctx, "/fleet/hosts/"+s.name+"/state/hash", &h)
		})
		d.call(kOther, "host-journal", func(ctx context.Context) error {
			return cl.Get(ctx, "/fleet/hosts/"+s.name+"/journal", &s.raw)
		})
		p.hashes["host_"+s.name] = h.StateHash
		s.hash = h.StateHash
		if cfg.Tamper == "hash" {
			s.hash = tamper(s.hash)
		}
		checked = append(checked, s)
	}

	// Rebuild the checked hosts from their journals the way a fresh
	// process would: with the fleet gone and its heap collected.
	// recover_s times the host that took the placements (the same host
	// whatever the seed), median of several replays; the seeded hosts
	// are replayed once, as checks.
	fs.close()
	closed = true
	fs, hosts = nil, nil
	debug.FreeOSMemory()
	for i, s := range checked {
		n := 1
		if i == 0 {
			n = fleetReplays
		}
		for rep := 0; rep < n; rep++ {
			// Every replay starts from the same small heap: the garbage of
			// the previous one would otherwise set when its GCs run.
			runtime.GC()
			replayHash, secs, err := replayJournal(s.cfg, s.raw, tr, "")
			p.layerS["snap.replay_s"] = append(p.layerS["snap.replay_s"], secs)
			if i == 0 {
				p.recoverS = append(p.recoverS, secs)
			}
			p.check(fmt.Sprintf("host %s hash = replay %d of its journal", s.name, rep),
				err == nil && replayHash == s.hash,
				"served %s replay %s (%.3fs) err=%v", short(s.hash), short(replayHash), secs, err)
		}
	}

	// Repeat: the same seeded rounds on a freshly booted fleet reach
	// the same fleet state, so a seed's hashes repeat from run to run.
	debug.FreeOSMemory()
	rfs, err := bootFleet(cfg.Hosts, nil)
	if err != nil {
		return nil, fmt.Errorf("repeat fleet boot: %w", err)
	}
	rd := newDriver(rfs.client, rfs.base, cfg.Workload, nil)
	for r := 0; r < prefix; r++ {
		fleetRound(rd, cfg.Hosts, places[r*placesPerRound:(r+1)*placesPerRound])
	}
	again := fleetHash(rd)
	rfs.close()
	p.check(fmt.Sprintf("first %d rounds repeat on a fresh fleet", prefix),
		again == prefixHash && rd.failed == 0,
		"run %s fresh %s, %d of %d requests failed", short(prefixHash), short(again), rd.failed, rd.attempted)
	return p, nil
}

// fleetRound issues one round: a fleet advance, a placement lifecycle
// per entry of places, the host list and a monitoring poll. It returns
// the host that took the round's first placement.
func fleetRound(d *driver, hosts int, places []admitReq) string {
	cl := d.c
	first := ""
	d.advance(fleetAdvanceUs, "/fleet/advance", hosts)
	for _, pl := range places {
		// A fleet mutation sample is one placement lifecycle, place
		// then evict, timed together: alone they are a 50/50 mix of
		// ~15 ms and ~0.3 ms requests whose median falls in the gap.
		start := d.begin()
		d.call(kOther, "place", func(ctx context.Context) error {
			var v viewResp
			err := cl.Post(ctx, "/fleet/tenants", pl, &v)
			if first == "" {
				first = v.Host
			}
			return err
		})
		d.call(kOther, "evict", func(ctx context.Context) error {
			return cl.Delete(ctx, "/fleet/tenants/"+pl.Tenant, nil)
		})
		d.end(kMutate, start)
	}
	d.call(kRead, "hosts", func(ctx context.Context) error {
		var hosts []fleetHostResp
		return cl.Get(ctx, "/fleet/hosts", &hosts)
	})
	// Likewise a scrape sample is one monitoring poll of both
	// surfaces, the JSON roll-up and /metrics.
	start := d.begin()
	d.call(kOther, "rollup", func(ctx context.Context) error {
		var s obs.Snapshot
		return cl.Get(ctx, "/fleet/metrics/rollup", &s)
	})
	d.call(kOther, "metrics", d.scrape)
	d.end(kScrape, start)
	return first
}

// fleetHash GETs the fleet state hash ("" if the request fails, which
// the driver counts).
func fleetHash(d *driver) string {
	var h hashResp
	d.call(kOther, "fleet-hash", func(ctx context.Context) error {
		return d.c.Get(ctx, "/fleet/state/hash", &h)
	})
	return h.FleetHash
}
