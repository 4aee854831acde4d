package arbiter

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/resmodel"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// twoFlowLine builds a 100 B/s line a->b->c with one greedy flow per
// tenant and returns everything needed for assertions.
func twoFlowLine(t *testing.T, mode Mode) (*Arbiter, *fabric.Fabric, *simtime.Engine, *fabric.Flow, *fabric.Flow, topology.Path) {
	t.Helper()
	e := simtime.NewEngine(2)
	topo := topology.New("line")
	topo.MustAddComponent("a", topology.KindNIC, 0)
	topo.MustAddComponent("b", topology.KindPCIeSwitch, 0)
	topo.MustAddComponent("c", topology.KindDIMM, 0)
	topo.MustAddLink(topology.LinkSpec{A: "a", B: "b", Class: topology.ClassPCIeDown, Capacity: 100, BaseLatency: 10})
	topo.MustAddLink(topology.LinkSpec{A: "b", B: "c", Class: topology.ClassIntraSocket, Capacity: 100, BaseLatency: 10})
	fab := fabric.New(topo, e, fabric.Config{PCIeEfficiency: 1})
	p, err := topo.ShortestPath("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	kv := &fabric.Flow{Tenant: "kv", Path: p}
	ml := &fabric.Flow{Tenant: "ml", Path: p}
	if err := fab.AddFlow(kv); err != nil {
		t.Fatal(err)
	}
	if err := fab.AddFlow(ml); err != nil {
		t.Fatal(err)
	}
	a, err := New(fab, Config{Mode: mode, AdjustPeriod: 10 * simtime.Microsecond, BorrowFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return a, fab, e, kv, ml, p
}

func TestConfigValidation(t *testing.T) {
	e := simtime.NewEngine(1)
	fab := fabric.New(topology.MinimalHost(), e, fabric.DefaultConfig())
	bad := []Config{
		{Mode: "weird", AdjustPeriod: 1},
		{Mode: Strict, AdjustPeriod: 0},
		{Mode: Strict, AdjustPeriod: 1, BorrowFraction: 2},
	}
	for i, c := range bad {
		if _, err := New(fab, c); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(fab, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestStrictGuaranteeEnforced(t *testing.T) {
	a, _, e, kv, ml, p := twoFlowLine(t, Strict)
	// Without arbitration: fair split 50/50.
	if kv.Rate() != 50 || ml.Rate() != 50 {
		t.Fatalf("pre-arbiter rates %v/%v", kv.Rate(), ml.Rate())
	}
	// Guarantee kv 80 B/s along the path.
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	if err := a.Install("kv", res); err != nil {
		t.Fatal(err)
	}
	_ = a.Start()
	e.RunFor(100 * simtime.Microsecond)
	if r := float64(kv.Rate()); r < 79.9 || r > 80.1 {
		t.Fatalf("guaranteed tenant rate %v, want 80", r)
	}
	if r := float64(ml.Rate()); r < 19.9 || r > 20.1 {
		t.Fatalf("bystander rate %v, want 20", r)
	}
}

func TestStrictWastesIdleReservation(t *testing.T) {
	a, fab, e, kv, ml, p := twoFlowLine(t, Strict)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	// kv goes idle (demand ~0); strict mode still caps ml at 20.
	_ = fab.SetDemand(kv, 1)
	e.RunFor(200 * simtime.Microsecond)
	if r := float64(ml.Rate()); r > 20.1 {
		t.Fatalf("strict bystander rate %v, want <= 20 (no work conservation)", r)
	}
}

func TestWorkConservingLendsIdleBandwidth(t *testing.T) {
	a, fab, e, kv, ml, p := twoFlowLine(t, WorkConserving)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	_ = fab.SetDemand(kv, 1)
	e.RunFor(500 * simtime.Microsecond)
	// ml should have borrowed well beyond its 20 B/s leftover.
	if r := float64(ml.Rate()); r < 50 {
		t.Fatalf("work-conserving bystander rate %v, want > 50", r)
	}
	// kv ramps back up: guarantee must be restored within a few
	// adjustment periods.
	_ = fab.SetDemand(kv, 0) // unconstrained again
	e.RunFor(500 * simtime.Microsecond)
	if r := float64(kv.Rate()); r < 79 {
		t.Fatalf("guarantee not restored after ramp-up: %v", r)
	}
}

func TestInstallValidation(t *testing.T) {
	a, _, _, _, _, _ := twoFlowLine(t, Strict)
	if err := a.Install("", resmodel.NewReservation()); err == nil {
		t.Fatal("empty tenant accepted")
	}
	bad := resmodel.NewReservation()
	bad.Add("zz->qq", 5)
	if err := a.Install("kv", bad); err == nil {
		t.Fatal("unknown link accepted")
	}
}

func TestRemoveReleasesBandwidth(t *testing.T) {
	a, fab, e, kv, ml, p := twoFlowLine(t, Strict)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	e.RunFor(100 * simtime.Microsecond)
	if float64(ml.Rate()) > 20.1 {
		t.Fatal("precondition failed")
	}
	a.Remove("kv")
	e.RunFor(100 * simtime.Microsecond)
	if r := float64(ml.Rate()); r < 49 {
		t.Fatalf("after removal ml rate %v, want ~50 fair share", r)
	}
	if fab.CapCount() != 0 && float64(kv.Rate()) < 49 {
		t.Fatalf("stale caps after removal: %d caps, kv %v", fab.CapCount(), kv.Rate())
	}
	a.Remove("kv") // idempotent
}

func TestGuaranteedAndFreeMap(t *testing.T) {
	a, _, _, _, _, p := twoFlowLine(t, Strict)
	res := resmodel.NewReservation()
	res.AddPipe(p, 30)
	_ = a.Install("kv", res)
	g := a.Guaranteed("kv")
	if g.Rate(p.Links[0].ID) != 30 {
		t.Fatalf("guaranteed %v", g.Rate(p.Links[0].ID))
	}
	// Merging accumulates.
	_ = a.Install("kv", res)
	if a.Guaranteed("kv").Rate(p.Links[0].ID) != 60 {
		t.Fatal("install did not merge")
	}
	free := a.FreeMap()
	if free[p.Links[0].ID] != 40 {
		t.Fatalf("free %v, want 40", free[p.Links[0].ID])
	}
	capm := a.CapacityMap()
	if capm[p.Links[0].ID] != 100 {
		t.Fatalf("capacity %v", capm[p.Links[0].ID])
	}
	if a.Guaranteed("nobody").Total() != 0 {
		t.Fatal("unknown tenant has guarantees")
	}
}

func TestSystemTenantNeverCapped(t *testing.T) {
	a, fab, e, _, _, p := twoFlowLine(t, Strict)
	sys := &fabric.Flow{Tenant: fabric.SystemTenant, Path: p}
	_ = fab.AddFlow(sys)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	_ = a.Install("kv", res)
	_ = a.Start()
	e.RunFor(100 * simtime.Microsecond)
	if _, ok := fab.TenantCap(p.Links[0].ID, fabric.SystemTenant); ok {
		t.Fatal("system tenant was capped")
	}
}

func TestAdjustmentLoopRuns(t *testing.T) {
	a, _, e, _, _, p := twoFlowLine(t, WorkConserving)
	res := resmodel.NewReservation()
	res.AddPipe(p, 10)
	_ = a.Install("kv", res)
	_ = a.Start()
	if err := a.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	e.RunFor(simtime.Millisecond)
	// 1ms / 10us = 100 ticks plus install passes.
	if a.Adjustments() < 100 {
		t.Fatalf("adjustments %d, want >= 100", a.Adjustments())
	}
	a.Stop()
	n := a.Adjustments()
	e.RunFor(simtime.Millisecond)
	if a.Adjustments() != n {
		t.Fatal("adjustments after Stop")
	}
	if a.Mode() != WorkConserving {
		t.Fatal("mode accessor wrong")
	}
}

// TestFreeMapDeterministicAcrossMapOrder is the regression test for
// the chaos harness's first determinism find: FreeMap accumulated
// guarantee subtractions in Go map iteration order, and the four rates
// below produce sums that differ in the last ulp depending on
// subtraction order. The scheduler feeds FreeMap into admission
// decisions, so an order-dependent ulp is enough to make a replayed
// journal diverge from the recorded run. Repeated calls must be
// bitwise identical.
func TestFreeMapDeterministicAcrossMapOrder(t *testing.T) {
	e := simtime.NewEngine(3)
	topo := topology.New("fat-line")
	topo.MustAddComponent("a", topology.KindNIC, 0)
	topo.MustAddComponent("b", topology.KindDIMM, 0)
	topo.MustAddLink(topology.LinkSpec{A: "a", B: "b", Class: topology.ClassIntraSocket, Capacity: 2e9, BaseLatency: 10})
	fab := fabric.New(topo, e, fabric.Config{PCIeEfficiency: 1})
	a, err := New(fab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	link := topo.Links()[0].ID
	// Order-sensitive in float64: different subtraction orders of
	// these four rates from 2e9 yield three distinct sums.
	rates := []topology.Rate{
		284946347.15323985, 286362432.1918807, 376668485.82092476, 388312247.45492679,
	}
	for i, r := range rates {
		res := resmodel.NewReservation()
		res.Add(link, r)
		if err := a.Install(fabric.TenantID(fmt.Sprintf("t%d", i)), res); err != nil {
			t.Fatal(err)
		}
	}
	want := a.FreeMap()[link]
	for i := 0; i < 400; i++ {
		if got := a.FreeMap()[link]; got != want {
			t.Fatalf("FreeMap call %d returned %.17g, first call returned %.17g", i, float64(got), float64(want))
		}
	}
	tenants := a.GuaranteedTenants()
	if len(tenants) != 4 || tenants[0] != "t0" || tenants[3] != "t3" {
		t.Fatalf("GuaranteedTenants = %v", tenants)
	}
}

// TestWorkConservingDecayReconvergesUnderChurn covers the ×0.7
// multiplicative back-off: after a borrow phase, a returning
// guaranteed tenant must reclaim its guarantee within a bounded number
// of adjust periods even while bystander churn keeps perturbing the
// baseline split and transiently reopening slack (which flips the
// arbiter between its lend and decay branches).
func TestWorkConservingDecayReconvergesUnderChurn(t *testing.T) {
	a, fab, e, kv, _, p := twoFlowLine(t, WorkConserving)
	res := resmodel.NewReservation()
	res.AddPipe(p, 80)
	if err := a.Install("kv", res); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	// Borrow phase: kv idles at 1 B/s, the ml bystander inflates its
	// cap well past its 20 B/s leftover share.
	_ = fab.SetDemand(kv, 1)
	e.RunFor(500 * simtime.Microsecond)
	if c, ok := fab.TenantCap(p.Links[0].ID, "ml"); !ok || float64(c) < 50 {
		t.Fatalf("borrow phase did not inflate ml cap: %v (ok=%v)", c, ok)
	}
	// Churn: a third tenant's flow appears and disappears every 30 us,
	// reshuffling the bystander set mid-reconvergence.
	var churn *fabric.Flow
	e.Every(30*simtime.Microsecond, func() {
		if churn == nil {
			churn = &fabric.Flow{Tenant: "churn", Path: p}
			_ = fab.AddFlow(churn)
		} else {
			fab.RemoveFlow(churn)
			churn = nil
		}
	})
	// Reconvergence phase: kv's demand returns. The decay must walk
	// ml's borrowed cap back toward its baseline within a bounded
	// number of adjust periods (generously 50 of the 10 us periods).
	_ = fab.SetDemand(kv, 0)
	const periods = 50
	converged := -1
	for i := 0; i < 2*periods; i++ {
		e.RunFor(10 * simtime.Microsecond)
		if float64(kv.Rate()) >= 79 {
			converged = i + 1
			break
		}
	}
	if converged < 0 {
		t.Fatalf("guaranteed tenant never reconverged: rate %v after %d periods", kv.Rate(), 2*periods)
	}
	if converged > periods {
		t.Fatalf("reconvergence took %d adjust periods, want <= %d", converged, periods)
	}
	// The reclaimed guarantee must then hold while churn continues.
	e.RunFor(500 * simtime.Microsecond)
	if r := float64(kv.Rate()); r < 79 {
		t.Fatalf("guarantee lost again under churn: %v", r)
	}
}

func BenchmarkArbitrationPass(b *testing.B) {
	e := simtime.NewEngine(9)
	topo := topology.DGXStyle()
	fab := fabric.New(topo, e, fabric.DefaultConfig())
	a, _ := New(fab, DefaultConfig())
	// 8 tenants with pipes over GPU links.
	for i := 0; i < 8; i++ {
		gpu := topology.CompID([]string{"gpu0", "gpu1", "gpu2", "gpu3", "gpu4", "gpu5", "gpu6", "gpu7"}[i])
		p, err := topo.ShortestPath(gpu, "socket0.dimm0_0")
		if err != nil {
			b.Fatal(err)
		}
		res := resmodel.NewReservation()
		res.AddPipe(p, topology.GBps(2))
		tn := fabric.TenantID(gpu)
		_ = fab.AddFlow(&fabric.Flow{Tenant: tn, Path: p})
		if err := a.Install(tn, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.apply()
	}
}

// referencePressure recomputes pressure from scratch: FreeMap and
// CapacityMap summed in link-ID order.
func referencePressure(a *Arbiter, fab *fabric.Fabric) float64 {
	free, capacity := a.FreeMap(), a.CapacityMap()
	var f, c float64
	for _, l := range fab.Topology().Links() {
		c += float64(capacity[l.ID])
		f += float64(free[l.ID])
	}
	if c == 0 {
		return 0
	}
	return 1 - f/c
}

// TestPressureCacheInvalidation checks the cached pressure against the
// from-scratch reference after every kind of change it depends on:
// guarantees installed and removed, link capacity degraded and
// restored. Pressure is read before each change so a missed
// invalidation shows up as a stale value.
func TestPressureCacheInvalidation(t *testing.T) {
	e := simtime.NewEngine(1)
	topo := topology.MinimalHost()
	fab := fabric.New(topo, e, fabric.DefaultConfig())
	a, err := New(fab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pipe := func(src, dst topology.CompID, rate topology.Rate) resmodel.Reservation {
		p, err := topo.ShortestPath(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		res := resmodel.NewReservation()
		res.AddPipe(p, rate)
		return res
	}
	nicPipe := pipe("nic0", "socket0.dimm0_0", topology.GBps(1.0/3))
	link := nicPipe.LinkIDs()[0]
	last := a.Pressure()
	check := func(step string) {
		t.Helper()
		got, want := a.Pressure(), referencePressure(a, fab)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("after %s: pressure %v, reference %v", step, got, want)
		}
		if got == last {
			t.Fatalf("after %s: pressure stayed %v; the step must move it", step, got)
		}
		last = got
	}
	if err := a.Install("kv", nicPipe); err != nil {
		t.Fatal(err)
	}
	check("Install kv")
	if err := a.Install("ml", pipe("gpu0", "socket0.dimm0_0", topology.GBps(0.7))); err != nil {
		t.Fatal(err)
	}
	check("Install ml")
	if err := fab.DegradeLink(link, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	check("DegradeLink")
	if err := fab.RestoreLink(link); err != nil {
		t.Fatal(err)
	}
	check("RestoreLink")
	a.Remove("kv")
	check("Remove kv")
	if n := testing.AllocsPerRun(100, func() { a.Pressure() }); n != 0 {
		t.Fatalf("cached Pressure allocates %v objects per call", n)
	}
}
