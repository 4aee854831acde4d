package obs

import (
	"sync"
)

// BusEvent is one published event wrapped with the bus's own
// monotonically increasing sequence number — what SSE uses as the
// event id and what Last-Event-ID resume is relative to. On a host bus
// it equals Event.Seq; on the fleet bus Event.Seq stays the
// originating host's number, which collide across hosts.
type BusEvent struct {
	Seq   uint64
	Event Event
}

// Bus is a host's event log and its live fan-out. A bounded replay
// ring retains the newest events (the tracer's Snapshot and a
// reconnecting subscriber's resume both read it), and each subscriber
// owns a fixed-size ring: when a consumer stalls, its oldest events
// are overwritten and a drop counter increments — the simulation hot
// path pays one short mutex and some copies per subscriber, never a
// wait.
//
// The zero Bus is not usable; NewBus allocates everything up front so
// Publish performs no allocation.
type Bus struct {
	mu     sync.Mutex
	seq    uint64
	ring   []BusEvent // replay ring, indexed by seq % len
	subs   []*Subscription
	closed bool

	// parent, when set, receives a copy of every event, tagged with
	// host (the fleet stream).
	parent *Bus
	host   string

	drop    *Counter // counts ring-overwrite drops across all subscribers
	dropped uint64
}

// NewBus returns a bus retaining up to capacity events for resume.
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = 1
	}
	return &Bus{ring: make([]BusEvent, capacity)}
}

// SetDropCounter wires the counter incremented whenever any
// subscriber's ring overwrites an undelivered event (the exported
// obs_sse_dropped_total).
func (b *Bus) SetDropCounter(c *Counter) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.drop = c
	b.mu.Unlock()
}

// ForwardTo mirrors every event published on b into parent, stamping
// Host so the fleet stream can say which host each event came from.
// A second call replaces the parent; cycles are the caller's
// responsibility to avoid.
func (b *Bus) ForwardTo(parent *Bus, host string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.parent, b.host = parent, host
	b.mu.Unlock()
}

// Publish stamps ev with the next bus sequence number and delivers it
// to every subscriber ring. It never blocks and never allocates: slow
// subscribers lose their oldest event (counted), fast ones are nudged
// through an already-buffered channel. ev.Seq is left as given, so a
// forwarded event keeps its host's number.
func (b *Bus) Publish(ev Event) { b.publish(ev, false) }

// publish is Publish; own marks the host's own (traced) event, whose
// Event.Seq becomes its bus position so every reader sees one number.
func (b *Bus) publish(ev Event, own bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.seq++
	if own {
		ev.Seq = b.seq
	}
	be := BusEvent{Seq: b.seq, Event: ev}
	b.ring[b.seq%uint64(len(b.ring))] = be
	for _, s := range b.subs {
		if s.push(be) {
			b.dropped++
			b.drop.Inc()
		}
	}
	parent, host := b.parent, b.host
	b.mu.Unlock()
	// Forward outside the lock: parent.Publish takes the parent's
	// mutex and must not nest inside ours.
	if parent != nil {
		if ev.Host == "" {
			ev.Host = host
		}
		parent.Publish(ev)
	}
}

// replay calls fn on every retained event with a sequence number
// greater than after, oldest first. The caller holds b.mu.
func (b *Bus) replay(after uint64, fn func(BusEvent)) {
	if after >= b.seq {
		return
	}
	n := uint64(len(b.ring))
	start := after + 1
	if b.seq > n && b.seq-n+1 > start {
		start = b.seq - n + 1
	}
	for q := start; q <= b.seq; q++ {
		if be := b.ring[q%n]; be.Seq == q {
			fn(be)
		}
	}
}

// events returns the retained events, oldest first.
func (b *Bus) events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, 0, min(b.seq, uint64(len(b.ring))))
	b.replay(0, func(be BusEvent) { out = append(out, be.Event) })
	return out
}

// Close ends every subscription: its Ready channel is closed, after
// any nudge for events already queued, so a consumer drains what is
// left and stops. Subscriptions made after Close end the same way after
// their replay. Publishing still fills the replay ring. A restore
// closes the replaced host's bus so its streams end and clients
// reconnect to the live host.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for _, s := range b.subs {
		close(s.ready)
	}
	b.subs = nil
}

// Seq returns the sequence number of the most recently published
// event (0 before the first publish).
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Dropped returns the total events lost to slow subscribers.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Subscribers returns the number of live subscriptions.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Subscribe registers a subscriber with a ring of the given capacity,
// starting from the next published event.
func (b *Bus) Subscribe(capacity int) *Subscription {
	return b.SubscribeFrom(capacity, ^uint64(0))
}

// SubscribeFrom registers a subscriber and pre-loads any retained
// events with sequence numbers greater than afterSeq (Last-Event-ID
// resume). Pass ^uint64(0) to start fresh. Events older than the
// replay ring are gone; the subscriber observes the gap through
// sequence numbers, not an error.
func (b *Bus) SubscribeFrom(capacity int, afterSeq uint64) *Subscription {
	if b == nil {
		return nil
	}
	if capacity <= 0 {
		capacity = 1
	}
	s := &Subscription{
		bus:   b,
		ring:  make([]BusEvent, capacity),
		ready: make(chan struct{}, 1),
	}
	b.mu.Lock()
	b.replay(afterSeq, func(be BusEvent) { s.push(be) })
	if b.closed {
		close(s.ready)
	} else {
		b.subs = append(b.subs, s)
	}
	b.mu.Unlock()
	return s
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	for i, cur := range b.subs {
		if cur == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// Subscription is one subscriber's bounded view of the bus. Drain and
// Ready are safe to use from a single consumer goroutine while
// publishers keep running.
type Subscription struct {
	bus   *Bus
	ready chan struct{}

	mu      sync.Mutex
	ring    []BusEvent
	start   int
	n       int
	dropped uint64
	closed  bool
}

// push appends be, overwriting the oldest undelivered event when
// full. Returns true when an event was dropped.
func (s *Subscription) push(be BusEvent) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	var drop bool
	if s.n == len(s.ring) {
		s.start = (s.start + 1) % len(s.ring)
		s.n--
		s.dropped++
		drop = true
	}
	s.ring[(s.start+s.n)%len(s.ring)] = be
	s.n++
	s.mu.Unlock()
	select {
	case s.ready <- struct{}{}:
	default:
	}
	return drop
}

// Ready returns a channel that receives a nudge when events are
// pending. One nudge can cover many events: always Drain after it.
// Once the bus is closed the channel is closed too; a receive that
// reports it closed means nothing is left pending.
func (s *Subscription) Ready() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.ready
}

// Drain returns and removes all pending events, oldest first.
func (s *Subscription) Drain() []BusEvent {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return nil
	}
	out := make([]BusEvent, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.ring[(s.start+i)%len(s.ring)]
	}
	s.start, s.n = 0, 0
	return out
}

// Dropped returns how many events this subscriber lost to overwrite.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close unregisters the subscription. Pending events are discarded.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.bus.unsubscribe(s)
}
