package obs

import (
	"sync"
	"testing"
	"time"

	"repro/internal/simtime"
)

func publishN(b *Bus, n int) {
	for i := 0; i < n; i++ {
		b.Publish(Event{Kind: KindHeartbeat, Virtual: simtime.Time(i)})
	}
}

// TestBusFanOutOrdering: every subscriber sees every event, in
// publish order, with dense bus sequence numbers.
func TestBusFanOutOrdering(t *testing.T) {
	b := NewBus(64)
	s1 := b.Subscribe(64)
	s2 := b.Subscribe(64)
	publishN(b, 50)
	for _, s := range []*Subscription{s1, s2} {
		evs := s.Drain()
		if len(evs) != 50 {
			t.Fatalf("drained %d events, want 50", len(evs))
		}
		for i, be := range evs {
			if be.Seq != uint64(i+1) {
				t.Fatalf("event %d has seq %d, want %d", i, be.Seq, i+1)
			}
		}
		if s.Dropped() != 0 {
			t.Fatalf("dropped %d, want 0", s.Dropped())
		}
	}
}

// TestBusSlowSubscriberDrops: a stalled subscriber keeps only the
// newest capacity events; the overwritten ones are counted on both
// the subscription and the wired drop counter.
func TestBusSlowSubscriberDrops(t *testing.T) {
	b := NewBus(8)
	drop := &Counter{}
	b.SetDropCounter(drop)
	s := b.Subscribe(4)
	publishN(b, 100)
	if got := s.Dropped(); got != 96 {
		t.Fatalf("subscription dropped %d, want 96", got)
	}
	if got := drop.Value(); got != 96 {
		t.Fatalf("drop counter %d, want 96", got)
	}
	evs := s.Drain()
	if len(evs) != 4 {
		t.Fatalf("drained %d, want 4", len(evs))
	}
	for i, be := range evs {
		if want := uint64(97 + i); be.Seq != want {
			t.Fatalf("kept event %d has seq %d, want %d (newest survive)", i, be.Seq, want)
		}
	}
}

// TestBusResume: SubscribeFrom replays retained events after the
// given sequence; events older than the replay ring are simply gone,
// visible as a sequence gap.
func TestBusResume(t *testing.T) {
	b := NewBus(16)
	publishN(b, 10)
	s := b.SubscribeFrom(32, 4)
	evs := s.Drain()
	if len(evs) != 6 {
		t.Fatalf("resume drained %d events, want 6 (seqs 5..10)", len(evs))
	}
	if evs[0].Seq != 5 || evs[len(evs)-1].Seq != 10 {
		t.Fatalf("resume seq range [%d, %d], want [5, 10]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
	s.Close()

	// Ask for history beyond the ring: only the retained tail exists.
	publishN(b, 30) // seq now 40, ring holds 25..40
	s2 := b.SubscribeFrom(64, 0)
	evs = s2.Drain()
	if len(evs) != 16 {
		t.Fatalf("deep resume drained %d, want 16 (ring capacity)", len(evs))
	}
	if evs[0].Seq != 25 {
		t.Fatalf("deep resume starts at %d, want 25", evs[0].Seq)
	}
}

// TestBusCloseEndsSubscriptions: closing a bus closes every
// subscriber's Ready channel after its pending events, and a
// subscription made afterwards ends once its replay is drained.
func TestBusCloseEndsSubscriptions(t *testing.T) {
	b := NewBus(16)
	s := b.Subscribe(16)
	publishN(b, 3)
	b.Close()
	b.Close() // idempotent
	if _, open := <-s.Ready(); !open {
		t.Fatal("pending nudge lost on close")
	}
	if got := len(s.Drain()); got != 3 {
		t.Fatalf("drained %d pending events, want 3", got)
	}
	if _, open := <-s.Ready(); open {
		t.Fatal("Ready still open after the bus closed")
	}
	if b.Subscribers() != 0 {
		t.Fatalf("%d subscribers after close", b.Subscribers())
	}
	s.Close()

	late := b.SubscribeFrom(16, 0)
	<-late.Ready()
	if got := len(late.Drain()); got != 3 {
		t.Fatalf("late subscriber replayed %d events, want 3", got)
	}
	if _, open := <-late.Ready(); open {
		t.Fatal("subscription to a closed bus never ends")
	}
}

// TestBusCloseConcurrent closes a bus under live publishers and
// subscribers: every subscriber's Ready loop ends, including those that
// subscribe after the close. Meaningful under -race.
func TestBusCloseConcurrent(t *testing.T) {
	b := NewBus(32)
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.Publish(Event{Kind: KindHeartbeat, Value: float64(i)})
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s := b.Subscribe(8)
				for range s.Ready() {
					s.Drain()
				}
				s.Close()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	b.Close()
	wg.Wait()
	close(stop)
	<-published
}

// TestBusForwardToOneParent: a host bus forwards to one parent, tagging
// the host and keeping the event's own seq; a second ForwardTo replaces
// the parent.
func TestBusForwardToOneParent(t *testing.T) {
	host := New(16)
	first, second := NewBus(16), NewBus(16)
	host.Bus.ForwardTo(first, "box-a")
	host.Tracer.Emit(Event{Kind: KindHeartbeat})
	host.Bus.ForwardTo(second, "box-b")
	host.Tracer.Emit(Event{Kind: KindHeartbeat})
	host.Tracer.Emit(Event{Kind: KindHeartbeat})

	got := first.SubscribeFrom(16, 0).Drain()
	if len(got) != 1 || got[0].Event.Host != "box-a" || got[0].Event.Seq != 1 {
		t.Fatalf("first parent got %+v", got)
	}
	got = second.SubscribeFrom(16, 0).Drain()
	if len(got) != 2 {
		t.Fatalf("second parent got %d events, want 2", len(got))
	}
	for i, be := range got {
		if be.Seq != uint64(i+1) || be.Event.Seq != uint64(i+2) || be.Event.Host != "box-b" {
			t.Fatalf("forwarded event %d: %+v", i, be)
		}
	}
}

// TestBusSubscribeCloseConcurrent hammers publish, drain, subscribe
// and close from many goroutines — the race detector is the real
// assertion here.
func TestBusSubscribeCloseConcurrent(t *testing.T) {
	b := NewBus(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				b.Publish(Event{Kind: KindHeartbeat, Value: float64(i)})
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := b.Subscribe(8)
				select {
				case <-s.Ready():
				case <-stop:
				}
				s.Drain()
				s.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := b.Subscribe(2) // stalled: never drains
		defer s.Close()
		time.Sleep(10 * time.Millisecond)
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if b.Subscribers() != 0 {
		t.Fatalf("%d subscribers leaked", b.Subscribers())
	}
}

// TestStalledSubscriberNeverBlocksEmit is the acceptance-criterion
// unit: a tracer wired to a bus with a permanently stalled subscriber
// keeps emitting at full speed — every emission lands in the trace
// ring, the publisher never waits, and the drop counter accounts for
// the subscriber's loss.
func TestStalledSubscriberNeverBlocksEmit(t *testing.T) {
	o := New(4096)
	stalled := o.Bus.Subscribe(8) // never drained
	defer stalled.Close()

	const emits = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < emits; i++ {
			o.Tracer.Emit(Event{Kind: KindRateRecompute, Value: float64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("emitter blocked behind a stalled subscriber")
	}
	if got := o.Tracer.Total(); got != emits {
		t.Fatalf("tracer recorded %d events, want %d", got, emits)
	}
	wantDrops := uint64(emits - 8)
	dropped := o.Registry.Snapshot("t").Counters["obs_sse_dropped_total"]
	if dropped != wantDrops || stalled.Dropped() != wantDrops {
		t.Fatalf("drops: counter %d, subscription %d, want %d",
			dropped, stalled.Dropped(), wantDrops)
	}
}

// TestTracerSpanStamping: events emitted inside BeginSpan/EndSpan
// carry the span; EndSpan observes wall latency into the wired
// histogram.
func TestTracerSpanStamping(t *testing.T) {
	o := New(64)
	sub := o.Bus.Subscribe(16)
	o.Tracer.BeginSpan("j42")
	o.Tracer.Emit(Event{Kind: KindCapSet, Subject: "x"})
	o.Tracer.Emit(Event{Kind: KindCapClear, Subject: "x"})
	o.Tracer.EndSpan()
	o.Tracer.Emit(Event{Kind: KindHeartbeat})

	evs := sub.Drain()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Event.Span != "j42" || evs[1].Event.Span != "j42" {
		t.Fatalf("span not stamped: %q %q", evs[0].Event.Span, evs[1].Event.Span)
	}
	if evs[2].Event.Span != "" {
		t.Fatalf("span leaked past EndSpan: %q", evs[2].Event.Span)
	}
	lat := o.Registry.Snapshot("t").Histograms["cmd_effect_latency_us"]
	if lat.Count != 1 {
		t.Fatalf("cmd_effect_latency_us count = %d, want 1", lat.Count)
	}
}

// BenchmarkBusPublish measures the publish hot path with one stalled
// subscriber — the worst case the simulation thread can hit. Budget:
// 0 allocs/op.
func BenchmarkBusPublish(b *testing.B) {
	bus := NewBus(4096)
	sub := bus.Subscribe(1024) // never drained: constant overwrite
	defer sub.Close()
	ev := Event{Kind: KindRateRecompute, Subject: "fabric", Value: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}

// BenchmarkBusPublishFanout8 measures fan-out overhead with eight
// subscribers. Budget: 0 allocs/op.
func BenchmarkBusPublishFanout8(b *testing.B) {
	bus := NewBus(4096)
	for i := 0; i < 8; i++ {
		defer bus.Subscribe(1024).Close()
	}
	ev := Event{Kind: KindRateRecompute, Subject: "fabric", Value: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish(ev)
	}
}
