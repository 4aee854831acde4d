package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/snap"
	"repro/internal/store"
)

// recovery is what one cold recovery reported.
type recovery struct {
	store.RecoveryReport
	recoverS float64 // the store.Recover call alone
}

// timedRecovery is one daemon restart on dir: store.Open, Recover,
// server up, GET /state/hash. It returns the served hash, the seconds
// from open to hash, and the live stack (the caller closes it). The
// driver is re-pointed at the new stack.
func timedRecovery(dir string, tr *tracer, d *driver) (string, float64, recovery, *hostStack, error) {
	start := time.Now()
	hs, rep, err := recoverHost(dir, tr, d.parent)
	if err != nil {
		return "", 0, rep, nil, err
	}
	d.c, d.base = hs.client, hs.base
	var h hashResp
	err = d.call(kOther, "state-hash", func(ctx context.Context) error {
		return hs.client.Get(ctx, "/state/hash", &h)
	})
	secs := time.Since(start).Seconds()
	if err != nil {
		hs.close()
		return "", secs, rep, nil, err
	}
	return h.StateHash, secs, rep, hs, nil
}

// runRestart: set-up builds a seeded store fixture (host-mutate cycles,
// one checkpoint at two thirds) and records its state hash; the timed
// loop cold-recovers fresh copies of it, checks every recovery lands
// on the recorded hash with nothing truncated or skipped, and drives a
// short burst of post-restart traffic on each recovered daemon.
func runRestart(cfg config, work string, tr *tracer, setups int) (*pass, error) {
	pass := "untraced"
	if tr != nil {
		pass = "traced"
	}
	fixtureCycles := genCycles(cfg.Seed, "f", cfg.FixtureCycles, hostScrapeEvery)
	var setupS []float64
	var fixture, recorded string
	var fixtureHashes []string
	for i := 0; i < setups; i++ {
		dir := filepath.Join(work, fmt.Sprintf("fixture-%s-%d", pass, i))
		start := time.Now()
		hash, err := buildFixture(dir, fixtureCycles, cfg.Workload)
		if err != nil {
			return nil, fmt.Errorf("%s fixture: %w", pass, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if fixture != "" {
			os.RemoveAll(fixture)
		}
		fixture, recorded = dir, hash
		fixtureHashes = append(fixtureHashes, hash)
	}
	if cfg.Tamper == "wal" {
		if err := flipWALByte(fixture); err != nil {
			return nil, err
		}
	}
	want := recorded
	if cfg.Tamper == "hash" {
		want = tamper(want)
	}

	d := newDriver(nil, "", cfg.Workload, tr)
	p := newPass(d, 1)
	p.setupS = setupS
	p.hashes["fixture_state"] = recorded
	p.check("fixture builds agree", allEqual(fixtureHashes), "%d builds", len(fixtureHashes))
	burst := genCycles(cfg.Seed+1, "b", cfg.BurstCycles, hostScrapeEvery)
	burstMutations := 3 * len(burst) // admit or batch, advance, evict
	mem := markMem()
	var burstHashes []string
	var heap uint64
	p.counters = counterSet{}
	// One block per recovery: copy, recovery and burst.
	for r := 0; r < cfg.Recoveries; r++ {
		// Every recovery starts from the same collected heap: the
		// previous one's garbage would otherwise set when its GCs run.
		runtime.GC()
		d.cut()
		copyDir := filepath.Join(work, fmt.Sprintf("recover-%s-%d", pass, r))
		if err := copyTree(fixture, copyDir); err != nil {
			return nil, err
		}
		if tr != nil {
			d.parent = fmt.Sprintf("bench-%s-recovery-%d", cfg.Workload, r)
		}
		rootStart := time.Now()
		got, secs, rep, hs, err := timedRecovery(copyDir, tr, d)
		if err != nil {
			// A recovery that fails outright (the tampered-WAL
			// self-test can get here) is a failed check, not a crash.
			p.check(fmt.Sprintf("recovery %d", r), false, "err=%v", err)
			os.RemoveAll(copyDir)
			d.open = nil
			continue
		}
		p.recoverS = append(p.recoverS, secs)
		p.layerS["store.recover_s"] = append(p.layerS["store.recover_s"], rep.recoverS)
		p.layerS["store.replayed_records"] = append(p.layerS["store.replayed_records"], float64(rep.Replayed))
		p.check(fmt.Sprintf("recovery %d = recorded hash", r),
			got == want && rep.TruncatedBytes == 0 && rep.SnapshotsSkipped == 0,
			"got %s want %s in %.3fs (checkpoint %d + %d records, truncated %dB, skipped %d)",
			short(got), short(want), secs, rep.SnapshotSeq, rep.Replayed, rep.TruncatedBytes, rep.SnapshotsSkipped)
		recoveredLen := hs.sess.Journal().Len()
		var recovered snap.Journal
		if tr != nil {
			// Kept for the layer split below; copied, as the live
			// journal coalesces advances in place.
			recovered.Entries = append([]snap.Entry(nil), hs.sess.Journal().Entries...)
		}

		walBase, records0 := walSize(copyDir), hs.st.Stats().WalRecords
		for _, c := range burst {
			runCycle(d, c, hostAdvanceUs)
		}
		burstHashes = append(burstHashes, stateHash(d))
		d.stop()
		p.walBytes += walSize(copyDir) - walBase
		p.walRecords += hs.st.Stats().WalRecords - records0
		// Everything the recovered host did (replay included) counts:
		// its counters start from zero at NewSession. Journal entries
		// count the burst's only.
		c := hostCounters(hs.sess.Manager())
		c["snap.journal_entries"] = float64(hs.sess.Journal().Len() - recoveredLen)
		c["simtime.host_ms"] = float64(hs.sess.Now()) / 1e6 // replayed + burst
		p.counters.add(c)
		p.mutations += burstMutations
		if r == cfg.Recoveries-1 {
			heap = liveHeap()
		}
		if tr != nil {
			// Layer split of the recovery, outside the timed block: the
			// same journal through snap.Replay alone, without the store.
			_, replayS, err := replay(hs.sess.Config(), recovered, tr, d.parent)
			if err != nil {
				p.check("snap.Replay of recovered journal", false, "err=%v", err)
			}
			p.layerS["snap.replay_s"] = append(p.layerS["snap.replay_s"], replayS)
		}
		hs.close()
		os.RemoveAll(copyDir)
		if tr != nil {
			tr.add(span{ID: d.parent, Layer: "bench", Name: "recovery+burst", start: rootStart, dur: time.Since(rootStart)})
		}
	}
	p.mem = mem.since()
	p.heapBytes = heap
	d.parent = ""
	if len(burstHashes) > 0 {
		p.hashes["post_burst_state"] = burstHashes[0]
	}
	p.check("post-restart bursts agree", allEqual(burstHashes), "%d bursts", len(burstHashes))
	return p, nil
}

// allEqual reports whether hashes is non-empty and holds one value.
func allEqual(hashes []string) bool {
	for _, h := range hashes {
		if h != hashes[0] {
			return false
		}
	}
	return len(hashes) > 0
}

// buildFixture drives a fresh store through the fixture cycles with one
// checkpoint at two thirds, records the final state hash and closes the
// store — the restart workload's set-up.
func buildFixture(dir string, cycles []cycle, workload string) (string, error) {
	hs, err := bootHost(dir, nil)
	if err != nil {
		return "", err
	}
	defer hs.close()
	d := newDriver(hs.client, hs.base, workload, nil)
	for i, c := range cycles {
		runCycle(d, c, hostAdvanceUs)
		if i == 2*len(cycles)/3 {
			snapshot(d)
		}
	}
	hash := stateHash(d)
	if d.failed > 0 {
		return "", fmt.Errorf("%d of %d fixture requests failed: %s", d.failed, d.attempted, strings.Join(d.errs, "; "))
	}
	return hash, nil
}

// walSize is the total size of a store's WAL segment files.
func walSize(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "journal", "*.wal"))
	var n int64
	for _, seg := range segs {
		if st, err := os.Stat(seg); err == nil {
			n += st.Size()
		}
	}
	return n
}

// flipWALByte corrupts one byte in the middle of the newest WAL
// segment (self-test: recovery must notice).
func flipWALByte(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "*.wal"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no WAL segment in %s", dir)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return fmt.Errorf("empty WAL segment %s", segs[len(segs)-1])
	}
	b := make([]byte, 1)
	off := st.Size() / 2
	if _, err := f.ReadAt(b, off); err != nil {
		return err
	}
	b[0] ^= 0xff
	_, err = f.WriteAt(b, off)
	return err
}

// copyTree copies a store directory (regular files and directories).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
