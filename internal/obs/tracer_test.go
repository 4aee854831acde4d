package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/simtime"
)

func TestTracerWraparoundAndOrdering(t *testing.T) {
	tr := New(8).Tracer
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Kind: KindFlowStart, Virtual: simtime.Time(i * 100)})
	}
	if got := tr.Total(); got != 20 {
		t.Errorf("Total = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Errorf("Dropped = %d, want 12", got)
	}
	snap := tr.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("Snapshot len = %d, want 8", len(snap))
	}
	for i, ev := range snap {
		wantSeq := uint64(13 + i) // 1-based: the bus position
		if ev.Seq != wantSeq {
			t.Errorf("snap[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Virtual != simtime.Time(int64(wantSeq-1)*100) {
			t.Errorf("snap[%d].Virtual = %v, want %v", i, ev.Virtual, (wantSeq-1)*100)
		}
	}
}

func TestTracerUnderCapacity(t *testing.T) {
	tr := New(16).Tracer
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: KindHeartbeat})
	}
	snap := tr.Snapshot()
	if len(snap) != 5 || tr.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 5/0", len(snap), tr.Dropped())
	}
	for i, ev := range snap {
		if ev.Seq != uint64(i+1) {
			t.Errorf("snap[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Wall == 0 {
			t.Errorf("snap[%d] missing wall stamp", i)
		}
	}
}

func TestTracerDisabledAndNil(t *testing.T) {
	tr := New(4).Tracer
	tr.SetEnabled(false)
	if tr.Enabled() {
		t.Error("Enabled after SetEnabled(false)")
	}
	tr.Emit(Event{Kind: KindFlowStart})
	if tr.Total() != 0 {
		t.Error("disabled tracer recorded an event")
	}
	var nilT *Tracer
	nilT.Emit(Event{}) // must not crash
	if nilT.Enabled() || nilT.Total() != 0 || nilT.Snapshot() != nil {
		t.Error("nil tracer not inert")
	}
}

// TestTracerConcurrency: parallel emitters with concurrent snapshots,
// meaningful under -race.
func TestTracerConcurrency(t *testing.T) {
	tr := New(64).Tracer
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(Event{Kind: KindRateRecompute, Value: float64(i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			snap := tr.Snapshot()
			for j := 1; j < len(snap); j++ {
				if snap[j].Seq != snap[j-1].Seq+1 {
					t.Errorf("snapshot not contiguous at %d", j)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if tr.Total() != 4000 {
		t.Errorf("Total = %d, want 4000", tr.Total())
	}
}

// TestNewAllocatesOneEventRing: the bus's replay ring is the host's
// only event store, so building an Obs costs one ring plus a small
// registry — not a second tracer ring of the same size.
func TestNewAllocatesOneEventRing(t *testing.T) {
	const capacity = 8192
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New(capacity)
		}
	})
	ring := capacity * int64(unsafe.Sizeof(BusEvent{}))
	if got := res.AllocedBytesPerOp(); float64(got) > 1.1*float64(ring) {
		t.Fatalf("New(%d) allocates %d B, want <= 1.1 x one %d B ring", capacity, got, ring)
	}
}

// TestTracerReadsTheBus: the tracer's readers and the bus agree on one
// log — Snapshot is the bus's replay ring and Total is its sequence.
func TestTracerReadsTheBus(t *testing.T) {
	o := New(8)
	for i := 0; i < 10; i++ {
		o.Tracer.Emit(Event{Kind: KindHeartbeat, Value: float64(i)})
	}
	if o.Tracer.Total() != o.Bus.Seq() || o.Tracer.Capacity() != 8 {
		t.Fatalf("Total %d, bus seq %d, capacity %d", o.Tracer.Total(), o.Bus.Seq(), o.Tracer.Capacity())
	}
	replay := o.Bus.SubscribeFrom(16, 0).Drain()
	snap := o.Tracer.Snapshot()
	if len(snap) != len(replay) {
		t.Fatalf("snapshot %d events, bus replay %d", len(snap), len(replay))
	}
	for i, be := range replay {
		if snap[i] != be.Event || be.Event.Seq != be.Seq {
			t.Fatalf("event %d: snapshot %+v, bus %+v", i, snap[i], be)
		}
	}
}

// BenchmarkTracerEmit measures the path every instrumented subsystem
// takes: span stamping inside an open span, then a publish with one
// stalled subscriber. Budget: 0 allocs/op.
func BenchmarkTracerEmit(b *testing.B) {
	o := New(4096)
	sub := o.Bus.Subscribe(1024) // never drained: constant overwrite
	defer sub.Close()
	o.Tracer.BeginSpan("bench")
	defer o.Tracer.EndSpan()
	ev := Event{Kind: KindRateRecompute, Subject: "fabric", Value: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Tracer.Emit(ev)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KindFlowAdmit; k <= KindTenantEvict; k++ {
		if got := KindByName(k.String()); got != k {
			t.Errorf("KindByName(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if KindByName("nope") != KindUnknown {
		t.Error("unknown name must map to KindUnknown")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := New(16).Tracer
	tr.Emit(Event{Kind: KindFlowStart, Virtual: 1000, Subject: "flow:1", Detail: "kv"})
	tr.Emit(Event{Kind: KindRateRecompute, Virtual: 2000, Value: 3, WallDur: 1500})
	tr.Emit(Event{Kind: KindAnomalyDetect, Virtual: 3000, Subject: "a~b"})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var instants, slices, metas int
	threads := map[string]bool{}
	for _, ev := range out.TraceEvents {
		switch ev["ph"] {
		case "i":
			instants++
		case "X":
			slices++
			if ev["dur"].(float64) <= 0 {
				t.Error("complete event without duration")
			}
		case "M":
			metas++
			if ev["name"] == "thread_name" {
				threads[ev["args"].(map[string]any)["name"].(string)] = true
			}
		}
	}
	if instants != 2 || slices != 1 {
		t.Errorf("instants=%d slices=%d, want 2/1", instants, slices)
	}
	for _, want := range []string{"fabric", "anomaly"} {
		if !threads[want] {
			t.Errorf("missing thread metadata for %q", want)
		}
	}
}
