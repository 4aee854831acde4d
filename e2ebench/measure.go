package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/apiclient"
)

// kind classes a request for the latency metrics.
type kind int

const (
	kMutate  kind = iota // admit, evict, batch; fleet place and evict
	kRead                // GET /report; GET /fleet/hosts
	kScrape              // GET /metrics; GET /fleet/metrics/rollup
	kAdvance             // POST /advance; POST /fleet/advance
	kOther               // health, hashes, journals, snapshots
	nKinds
)

// pass is what one workload pass measured.
type pass struct {
	d         *driver
	setupS    []float64 // one entry per boot
	recoverS  []float64
	hosts     int
	heapBytes uint64 // live heap after a forced GC at the end of the loop
	checks    []check
	hashes    map[string]string

	// Per-layer raw material, filled by every pass (cheap reads before
	// and after the loop); reported only by traced runs.
	counters   counterSet // deltas over the timed loop
	mem        memDelta
	sseEvents  uint64
	walBytes   int64  // growth of the WAL segment files over the loop
	walRecords uint64 // WAL records appended over the loop
	mutations  int    // mutating requests issued in the loop (advances included)
	layerS     map[string][]float64
}

func newPass(d *driver, hosts int) *pass {
	return &pass{d: d, hosts: hosts, hashes: map[string]string{}, layerS: map[string][]float64{}}
}

func (p *pass) check(name string, ok bool, format string, args ...any) {
	p.checks = append(p.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// driver issues the benchmark's requests through apiclient, one at a
// time (a closed loop), and records client-observed latency from the
// call to the decoded response.
type driver struct {
	c        *apiclient.Client
	base     string // http://host:port, for the unversioned /metrics
	workload string
	tr       *tracer
	parent   string // span parent for the next requests ("" = root)
	seq      int

	lat       [nKinds][]float64 // ms
	attempted int
	failed    int
	errs      []string
	respBytes int64
	hostMs    float64 // virtual host-milliseconds advanced by advance requests
	advanceMs float64 // wall time inside those advance requests

	// The timed loop is cut into blocks; every end-to-end number is
	// taken per block and the median block is reported.
	open   *mark
	blocks [][2]mark
}

// mark is the driver's position at a block boundary.
type mark struct {
	at        time.Time
	ok        int
	n         [nKinds]int
	hostMs    float64
	advanceMs float64
}

func newDriver(c *apiclient.Client, base, workload string, tr *tracer) *driver {
	return &driver{c: c, base: base, workload: workload, tr: tr}
}

func (d *driver) now() mark {
	m := mark{at: time.Now(), ok: d.attempted - d.failed, hostMs: d.hostMs, advanceMs: d.advanceMs}
	for k := range d.lat {
		m.n[k] = len(d.lat[k])
	}
	return m
}

// cut closes the open block, if any, and opens the next one.
func (d *driver) cut() {
	m := d.now()
	if d.open != nil {
		d.blocks = append(d.blocks, [2]mark{*d.open, m})
	}
	d.open = &m
}

// stop closes the open block.
func (d *driver) stop() {
	if d.open != nil {
		d.blocks = append(d.blocks, [2]mark{*d.open, d.now()})
		d.open = nil
	}
}

// blockEvery is how many loop iterations make one block, for n
// iterations cut into about want blocks.
func blockEvery(n, want int) int { return max(1, n/want) }

// call runs one request. Failures (transport errors and non-2xx
// answers) are counted, not fatal: error_rate reports them.
func (d *driver) call(k kind, name string, fn func(ctx context.Context) error) error {
	ctx := context.Background()
	var oc *opCtx
	if d.tr != nil {
		d.seq++
		oc = &opCtx{id: fmt.Sprintf("bench-%s-%d", d.workload, d.seq)}
		ctx = context.WithValue(ctx, opKey{}, oc)
	}
	start := time.Now()
	err := fn(ctx)
	dur := time.Since(start)
	d.attempted++
	if err != nil {
		d.failed++
		if len(d.errs) < 5 {
			d.errs = append(d.errs, fmt.Sprintf("%s: %v", name, err))
		}
	} else {
		d.lat[k] = append(d.lat[k], ms(dur))
	}
	if oc != nil {
		d.respBytes += oc.bytes
		d.tr.add(span{ID: oc.id, Parent: d.parent, Layer: "apiclient", Name: name, start: start, dur: dur})
	}
	return err
}

// groupStart and end time a group of requests as one sample of kind k,
// recorded only if none of them failed.
type groupStart struct {
	failed int
	at     time.Time
}

func (d *driver) begin() groupStart { return groupStart{d.failed, time.Now()} }

func (d *driver) end(k kind, g groupStart) {
	if d.failed == g.failed {
		d.lat[k] = append(d.lat[k], ms(time.Since(g.at)))
	}
}

// scrape GETs the unversioned Prometheus endpoint (apiclient covers
// only /api/v1) through the same HTTP client and reads the whole body.
func (d *driver) scrape(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: http %d", resp.StatusCode)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the linearly interpolated q-quantile of xs (NaN when
// empty). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timed returns the loop's latency samples of one kind.
func (d *driver) timed(k kind) []float64 {
	var xs []float64
	for _, b := range d.blocks {
		xs = append(xs, d.lat[k][b[0].n[k]:b[1].n[k]]...)
	}
	return xs
}

// endToEnd computes the user-visible metrics of a pass. Rates are
// computed per block of the timed loop and the median block is
// reported, so one block slowed by something outside the benchmark
// does not decide the run. Latency medians pool every sample of the
// loop. Tail percentiles are printed by latencyReport, not reported
// here: on a 2-vCPU VM their run-to-run spread is far wider than any
// regression bound worth gating on.
func endToEnd(p *pass) map[string]metric {
	d := p.d
	perBlock := func(f func(a, b mark) (float64, bool)) float64 {
		var vs []float64
		for _, b := range d.blocks {
			if v, ok := f(b[0], b[1]); ok {
				vs = append(vs, v)
			}
		}
		return median(vs)
	}
	p50 := func(k kind) float64 { return quantile(d.timed(k), 0.5) }
	return map[string]metric{
		"setup_s": {median(p.setupS), "s"},
		"ops_per_s": {perBlock(func(a, b mark) (float64, bool) {
			return float64(b.ok-a.ok) / b.at.Sub(a.at).Seconds(), true
		}), "1/s"},
		"mutate_p50_ms":  {p50(kMutate), "ms"},
		"read_p50_ms":    {p50(kRead), "ms"},
		"scrape_p50_ms":  {p50(kScrape), "ms"},
		"advance_p50_ms": {p50(kAdvance), "ms"},
		"host_ms_per_s": {perBlock(func(a, b mark) (float64, bool) {
			wall := b.advanceMs - a.advanceMs
			return (b.hostMs - a.hostMs) / (wall / 1e3), wall > 0
		}), "ms/s"},
		"recover_s":        {median(p.recoverS), "s"},
		"heap_mb_per_host": {float64(p.heapBytes) / float64(p.hosts) / (1 << 20), "MB"},
	}
}

// latencyReport prints, per request class, the sample count, median,
// p90 and p99. A percentile is printed only when at least ten samples
// lie beyond it; "-" marks one the run cannot support.
func latencyReport(p *pass) []string {
	names := [nKinds]string{kMutate: "mutate", kRead: "read", kScrape: "scrape", kAdvance: "advance"}
	out := []string{"# latency (ms)       n        p50        p90        p99"}
	for k := kMutate; k < kOther; k++ {
		xs := p.d.timed(k)
		cell := func(q float64) string {
			if float64(len(xs))*(1-q) < 10 {
				return "-"
			}
			return fmt.Sprintf("%.4f", quantile(xs, q))
		}
		out = append(out, fmt.Sprintf("#   %-10s %8d %10s %10s %10s", names[k], len(xs), cell(0.5), cell(0.9), cell(0.99)))
	}
	return out
}

// liveHeap forces a collection and returns the live heap size. Two
// cycles: the first moves sync.Pool contents to the victim cache, the
// second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memDelta is the Go runtime's allocation and GC work over the loop.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauseNs             uint64
}

type memMark runtime.MemStats

func markMem() *memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (*memMark)(&ms)
}

func (m *memMark) since() memDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return memDelta{
		mallocs: now.Mallocs - m.Mallocs,
		bytes:   now.TotalAlloc - m.TotalAlloc,
		gcs:     uint64(now.NumGC - m.NumGC),
		pauseNs: now.PauseTotalNs - m.PauseTotalNs,
	}
}
