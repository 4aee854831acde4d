package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/apiclient"
)

// Generated inputs. Only these reach the program; the daemon's own
// seed stays at ihnetd's default.

var (
	devices  = []string{"nic0", "nic1", "ssd0", "ssd1", "gpu0", "gpu1"}
	memories = []string{"memory:socket0", "memory:socket1"}
)

type targetReq struct {
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
}

type admitReq struct {
	Tenant  string      `json:"tenant"`
	Targets []targetReq `json:"targets"`
}

// genTargets draws 1-2 device -> memory targets at 0.5-8 Gb/s: small
// enough that an admission on an otherwise idle host always fits.
func genTargets(rng *rand.Rand, n int) []targetReq {
	out := make([]targetReq, n)
	for i := range out {
		out[i] = targetReq{
			Src:      devices[rng.Intn(len(devices))],
			Dst:      memories[rng.Intn(len(memories))],
			RateGbps: float64(1+rng.Intn(16)) / 2,
		}
	}
	return out
}

// cycle is one host-mutate cycle: admit (or a batch that admits),
// advance, report, optional scrape, evict.
type cycle struct {
	admit  admitReq
	batch  []apiclient.BatchOp // replaces the admit when set
	scrape bool
}

func genCycles(seed int64, prefix string, n, scrapeEvery int) []cycle {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cycle, n)
	for i := range out {
		name := fmt.Sprintf("%s%d", prefix, i)
		c := cycle{admit: admitReq{Tenant: name, Targets: genTargets(rng, 1+rng.Intn(2))}}
		if i%8 == 7 {
			// Admit the cycle's tenant plus a companion, evict the
			// companion: one journal entry, one solver settle.
			companion := genTargets(rng, 1)
			c.batch = []apiclient.BatchOp{
				{Op: "admit", Tenant: name, Targets: batchTargets(c.admit.Targets)},
				{Op: "admit", Tenant: name + "x", Targets: batchTargets(companion)},
				{Op: "evict", Tenant: name + "x"},
			}
		}
		c.scrape = i%scrapeEvery == scrapeEvery-1
		out[i] = c
	}
	return out
}

func batchTargets(ts []targetReq) []apiclient.BatchTarget {
	out := make([]apiclient.BatchTarget, len(ts))
	for i, t := range ts {
		out[i] = apiclient.BatchTarget{Src: t.Src, Dst: t.Dst, RateGbps: t.RateGbps}
	}
	return out
}

// Response shapes the client decodes (the fields the benchmark reads
// plus enough of the rest that decoding is real work).

type viewResp struct {
	Tenant   string             `json:"tenant"`
	Host     string             `json:"host"`
	LinksBps map[string]float64 `json:"guaranteed_links_bps"`
}

type advanceResp struct {
	VirtualTimeNs int64 `json:"virtual_time_ns"`
	HostsAdvanced int   `json:"hosts_advanced"`
}

type reportResp struct {
	VirtualTimeNs int64 `json:"virtual_time_ns"`
	Links         []struct {
		ID          string             `json:"id"`
		Utilization float64            `json:"utilization"`
		RateBps     float64            `json:"rate_bps"`
		TenantBytes map[string]float64 `json:"tenant_bytes"`
	} `json:"links"`
	Tenants map[string]map[string]float64 `json:"tenant_usage_bps"`
}

type hashResp struct {
	StateHash      string `json:"state_hash"`
	FleetHash      string `json:"fleet_hash"`
	VirtualTimeNs  int64  `json:"virtual_time_ns"`
	JournalEntries int    `json:"journal_entries"`
}

// runCycle issues one cycle's requests. advanceUs is the virtual time
// each cycle advances.
func runCycle(d *driver, c cycle, advanceUs int64) {
	cl := d.c
	if c.batch != nil {
		d.call(kMutate, "batch", func(ctx context.Context) error {
			_, err := cl.Batch(ctx, c.batch)
			return err
		})
	} else {
		d.call(kMutate, "admit", func(ctx context.Context) error {
			var v viewResp
			return cl.Post(ctx, "/tenants", c.admit, &v)
		})
	}
	d.advance(advanceUs, "/advance", 1)
	d.call(kRead, "report", func(ctx context.Context) error {
		var r reportResp
		return cl.Get(ctx, "/report", &r)
	})
	if c.scrape {
		d.call(kScrape, "metrics", d.scrape)
	}
	d.call(kMutate, "evict", func(ctx context.Context) error {
		return cl.Delete(ctx, "/tenants/"+c.admit.Tenant, nil)
	})
}

// advance issues one advance request and accounts its virtual
// host-milliseconds and wall time.
func (d *driver) advance(us int64, path string, hosts int) {
	err := d.call(kAdvance, "advance", func(ctx context.Context) error {
		var r advanceResp
		return d.c.Post(ctx, path, map[string]int64{"micros": us}, &r)
	})
	if err == nil {
		d.advanceMs += d.lat[kAdvance][len(d.lat[kAdvance])-1]
		d.hostMs += float64(us) / 1e3 * float64(hosts)
	}
}
