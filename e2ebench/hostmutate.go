package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/snap"
)

const (
	// hostAdvanceUs is the virtual time each host-mutate cycle advances.
	hostAdvanceUs = 100
	// hostRecoveries is how many cold recoveries of the run's store
	// recover_s takes the median of.
	hostRecoveries = 3
	// timedBlocks is how many blocks the timed loops are cut into.
	timedBlocks = 8
	// hostScrapeEvery: a GET /metrics every 16th cycle.
	hostScrapeEvery = 16
)

// runHostMutate: one two-socket host with a durable store, a closed
// loop of admit/advance/report/evict cycles plus one SSE watcher. After
// the loop: the final state hash must equal a replay of the served
// journal, a cold recovery of the store (timed: recover_s) must land on
// the same hash, and the loop's first block replayed on a fresh host
// must reach the hash the run had after it.
func runHostMutate(cfg config, work string, tr *tracer, setups int) (*pass, error) {
	cycles := genCycles(cfg.Seed, "t", cfg.Cycles, hostScrapeEvery)
	pass, dir := "untraced", "hm"
	if tr != nil {
		pass, dir = "traced", "hm-traced"
	}
	var hs *hostStack
	var setupS []float64
	for i := 0; i < setups; i++ {
		if hs != nil {
			hs.close()
		}
		// Every boot starts from the same collected heap.
		runtime.GC()
		d := filepath.Join(work, fmt.Sprintf("%s-%d", dir, i))
		start := time.Now()
		var err error
		if hs, err = bootHost(d, tr); err != nil {
			return nil, fmt.Errorf("%s boot: %w", pass, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	storeDir := hs.st.Dir()
	closed := false
	defer func() {
		if !closed {
			hs.close()
		}
	}()

	d := newDriver(hs.client, hs.base, cfg.Workload, tr)
	p := newPass(d, 1)
	p.setupS = setupS
	w := watch(hs.client, "/events")

	before := hostCounters(hs.sess.Manager())
	entries0 := hs.sess.Journal().Len()
	records0 := hs.st.Stats().WalRecords
	// WAL growth is read from the segment files; a snapshot prunes the
	// segments it covers, so growth is summed between snapshots.
	walBase := walSize(storeDir)
	mem := markMem()
	every := blockEvery(len(cycles), timedBlocks)
	// The hash after the first block, taken between blocks so it is not
	// timed; the repeat check below reaches it again on a fresh host.
	prefix, prefixHash := len(cycles), ""
	d.cut()
	for i, c := range cycles {
		if i > 0 && i%every == 0 {
			if prefixHash == "" {
				d.stop()
				prefix, prefixHash = i, stateHash(d)
			}
			d.cut()
		}
		runCycle(d, c, hostAdvanceUs)
		if (i+1)%cfg.SnapshotEvery == 0 {
			p.walBytes += walSize(storeDir) - walBase
			snapshot(d)
			walBase = walSize(storeDir)
		}
	}
	d.stop()
	p.walBytes += walSize(storeDir) - walBase
	p.walRecords = hs.st.Stats().WalRecords - records0
	p.mem = mem.since()
	sse, werr := w.stop()
	p.sseEvents = sse
	p.check("sse watcher", werr == nil, "%d events, err=%v", sse, werr)
	p.counters = hostCounters(hs.sess.Manager()).minus(before)
	p.counters["snap.journal_entries"] = float64(hs.sess.Journal().Len() - entries0)
	p.counters["simtime.host_ms"] = d.hostMs
	p.mutations = 3 * len(cycles) // admit or batch, advance, evict
	p.heapBytes = liveHeap()

	// Final state vs a replay of the journal the daemon serves.
	finalHash := stateHash(d)
	if prefixHash == "" {
		prefixHash = finalHash
	}
	var raw []byte
	d.call(kOther, "journal", func(ctx context.Context) error {
		return hs.client.Get(ctx, "/journal", &raw)
	})
	want := finalHash
	if cfg.Tamper == "hash" {
		want, prefixHash = tamper(want), tamper(prefixHash)
	}
	p.hashes["final_state"] = finalHash
	replayHash, replayS, err := replayJournal(hs.sess.Config(), raw, tr, "")
	p.check("final hash = replay(GET /journal)", err == nil && replayHash == want,
		"final %s replay %s (%.3fs) err=%v", short(want), short(replayHash), replayS, err)
	p.layerS["snap.replay_s"] = append(p.layerS["snap.replay_s"], replayS)

	// Cold restarts on fresh copies of the run's own store.
	hs.close()
	closed = true
	for r := 0; r < hostRecoveries; r++ {
		copyDir := fmt.Sprintf("%s-recover-%d", storeDir, r)
		if err := copyTree(storeDir, copyDir); err != nil {
			return nil, err
		}
		rec, recS, rep, rhs, err := timedRecovery(copyDir, tr, d)
		if err != nil {
			return nil, fmt.Errorf("%s recovery: %w", pass, err)
		}
		rhs.close()
		os.RemoveAll(copyDir)
		p.recoverS = append(p.recoverS, recS)
		p.layerS["store.recover_s"] = append(p.layerS["store.recover_s"], rep.recoverS)
		p.layerS["store.replayed_records"] = append(p.layerS["store.replayed_records"], float64(rep.Replayed))
		p.check(fmt.Sprintf("cold recovery %d hash = final hash", r),
			rec == want && rep.TruncatedBytes == 0 && rep.SnapshotsSkipped == 0,
			"recovered %s in %.3fs (checkpoint %d + %d records, truncated %dB, skipped %d)",
			short(rec), recS, rep.SnapshotSeq, rep.Replayed, rep.TruncatedBytes, rep.SnapshotsSkipped)
	}

	// Repeat: the same seeded cycles on a fresh host reach the same
	// state, so a seed's hashes repeat from run to run.
	rhs, err := bootHost(filepath.Join(work, dir+"-repeat"), nil)
	if err != nil {
		return nil, fmt.Errorf("%s repeat boot: %w", pass, err)
	}
	rd := newDriver(rhs.client, rhs.base, cfg.Workload, nil)
	for i, c := range cycles[:prefix] {
		runCycle(rd, c, hostAdvanceUs)
		if (i+1)%cfg.SnapshotEvery == 0 {
			snapshot(rd)
		}
	}
	again := stateHash(rd)
	rhs.close()
	p.check(fmt.Sprintf("first %d cycles repeat on a fresh host", prefix),
		again == prefixHash && rd.failed == 0,
		"run %s fresh %s, %d of %d requests failed", short(prefixHash), short(again), rd.failed, rd.attempted)
	return p, nil
}

// stateHash GETs the single-host state hash ("" if the request fails,
// which the driver counts).
func stateHash(d *driver) string {
	var h hashResp
	d.call(kOther, "state-hash", func(ctx context.Context) error {
		return d.c.Get(ctx, "/state/hash", &h)
	})
	return h.StateHash
}

// snapshot asks the daemon for a durable checkpoint.
func snapshot(d *driver) {
	d.call(kOther, "snapshot", func(ctx context.Context) error {
		var body []byte
		return d.c.Post(ctx, "/snapshot", nil, &body)
	})
}

// replayJournal rebuilds a host from a served journal with snap.Replay
// (no store) and returns its state hash and the replay time.
func replayJournal(cfg snap.Config, raw []byte, tr *tracer, parent string) (string, float64, error) {
	j, err := snap.ReadJournal(bytes.NewReader(raw))
	if err != nil {
		return "", 0, err
	}
	return replay(cfg, j, tr, parent)
}

func replay(cfg snap.Config, j snap.Journal, tr *tracer, parent string) (string, float64, error) {
	end := tr.begin(parent, "snap", "snap.Replay")
	start := time.Now()
	sess, err := snap.Replay(cfg, j)
	secs := time.Since(start).Seconds()
	end()
	if err != nil {
		return "", secs, err
	}
	defer sess.Manager().Stop()
	return snap.StateHash(sess.Manager()), secs, nil
}

// tamper flips the first hex digit of a hash (self-test of the checks).
func tamper(h string) string {
	if h == "" {
		return "0"
	}
	b := []byte(h)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}
