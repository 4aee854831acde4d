package fleet

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/simtime"
	"repro/internal/topology"
)

func newFleet(t *testing.T, n int) *Fleet {
	t.Helper()
	f := New()
	for i := 0; i < n; i++ {
		opts := core.DefaultOptions()
		opts.Seed = int64(i + 1)
		m, err := core.New(topology.TwoSocketServer(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddHost(string(rune('a'+i)), m); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestAddHostValidation(t *testing.T) {
	f := New()
	if _, err := f.AddHost("", nil); err == nil {
		t.Fatal("empty host accepted")
	}
	m, _ := core.New(topology.MinimalHost(), core.DefaultOptions())
	if _, err := f.AddHost("x", m); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddHost("x", m); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if f.Host("x") == nil || f.Host("y") != nil {
		t.Fatal("Host lookup wrong")
	}
}

func TestPlaceLeastPressure(t *testing.T) {
	f := newFleet(t, 2)
	targets := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(8)}}
	// First placement goes somewhere; pressure that host, then the
	// second distinct tenant should land on the other.
	_, h1, err := f.Place("t1", targets)
	if err != nil {
		t.Fatal(err)
	}
	_, h2, err := f.Place("t2", targets)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Name == h2.Name {
		t.Fatalf("both tenants on %s despite equal alternatives", h1.Name)
	}
	if f.Locate("t1") == nil || f.Locate("t2") == nil {
		t.Fatal("Locate failed")
	}
	if f.Locate("ghost") != nil {
		t.Fatal("Locate found ghost")
	}
}

func TestPlaceFailsWhenFull(t *testing.T) {
	f := newFleet(t, 2)
	big := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(25)}}
	if _, _, err := f.Place("t1", big); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Place("t2", big); err != nil {
		t.Fatal(err)
	}
	// Both hosts' nic0 uplinks are now fully reserved.
	if _, _, err := f.Place("t3", big); err == nil {
		t.Fatal("overcommit accepted")
	}
}

func TestPressureGrowsWithReservations(t *testing.T) {
	f := newFleet(t, 1)
	h := f.Hosts()[0]
	before := h.Pressure()
	if _, err := h.Mgr.Admit("t", []intent.Target{
		{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(20)},
	}); err != nil {
		t.Fatal(err)
	}
	if h.Pressure() <= before {
		t.Fatalf("pressure %v not above %v after reservation", h.Pressure(), before)
	}
}

// TestPressureDeterministic pins placement to bit-identical
// pressures. Fractional guarantees make the per-link float sums
// order-sensitive, so a pressure summed in map-iteration order drifts
// in its last bits from call to call, and a placement between two
// identically loaded hosts flips between them from run to run.
func TestPressureDeterministic(t *testing.T) {
	load := []intent.Target{
		{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(1.0 / 3)},
		{Src: "gpu0", Dst: intent.AnyMemory, Rate: topology.GBps(0.7)},
	}
	third := []intent.Target{{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(1)}}
	first := ""
	for run := 0; run < 20; run++ {
		f, err := Synth(SynthSpec{Hosts: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range f.Hosts() {
			if _, err := h.admit("frac", load); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want := math.Float64bits(h.Pressure())
				for i := 0; i < 1000; i++ {
					if got := math.Float64bits(h.Pressure()); got != want {
						t.Fatalf("%s: pressure bits %#x on call %d, want %#x", h.Name, got, i, want)
					}
				}
			}
		}
		_, h, err := f.Place("third", third)
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = h.Name
		} else if h.Name != first {
			t.Fatalf("run %d placed on %s, run 0 on %s", run, h.Name, first)
		}
	}
}

func TestRebalanceMovesOnlyAffectedTenants(t *testing.T) {
	f := newFleet(t, 2)
	sr := NewShardedRunner(f, ShardConfig{})
	hostA := f.Host("a")
	// victim's pathway crosses pcieswitch0; bystander lives on the
	// other socket's fabric entirely.
	if _, err := hostA.Mgr.Admit("victim", []intent.Target{
		{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(5)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := hostA.Mgr.Admit("bystander", []intent.Target{
		{Src: "gpu1", Dst: "memory:socket1", Rate: topology.GBps(5)},
	}); err != nil {
		t.Fatal(err)
	}
	// Calibrate heartbeats, then silently degrade the victim's switch
	// link on host a.
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := hostA.Mgr.Fabric().DegradeLink("pcieswitch0->nic0", 0.2, 10*simtime.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(hostA.Mgr.Anomaly().Detections()) == 0 {
		t.Fatal("degradation not detected; rebalance has nothing to act on")
	}
	affected := AffectedTenants(hostA)
	if len(affected) != 1 || affected[0] != "victim" {
		t.Fatalf("affected = %v, want [victim]", affected)
	}
	rep := f.Rebalance()
	if dst, ok := rep.Moved["victim"]; !ok || dst != "b" {
		t.Fatalf("rebalance moved %v", rep.Moved)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed: %v", rep.Failed)
	}
	if f.Locate("victim").Name != "b" {
		t.Fatal("victim not on host b")
	}
	if f.Locate("bystander").Name != "a" {
		t.Fatal("bystander was moved")
	}
}

func TestRebalanceReportsUnplaceable(t *testing.T) {
	f := newFleet(t, 2)
	sr := NewShardedRunner(f, ShardConfig{})
	hostA, hostB := f.Host("a"), f.Host("b")
	// Fill host b's nic0 path so it cannot take the victim.
	if _, err := hostB.Mgr.Admit("hog", []intent.Target{
		{Src: "nic0", Dst: intent.AnyMemory, Rate: topology.GBps(25)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := hostA.Mgr.Admit("victim", []intent.Target{
		{Src: "nic0", Dst: "memory:socket0", Rate: topology.GBps(20)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	_ = hostA.Mgr.Fabric().DegradeLink("pcieswitch0->nic0", 0.2, 10*simtime.Microsecond)
	if _, err := sr.RunFor(context.Background(), 2*simtime.Millisecond); err != nil {
		t.Fatal(err)
	}
	rep := f.Rebalance()
	if len(rep.Failed) != 1 || rep.Failed[0] != "victim" {
		t.Fatalf("report: %+v", rep)
	}
	if f.Locate("victim").Name != "a" {
		t.Fatal("unplaceable tenant was evicted anyway")
	}
}

func TestPlaceNoHosts(t *testing.T) {
	if _, _, err := New().Place("t", nil); err == nil {
		t.Fatal("placement on empty fleet accepted")
	}
}
