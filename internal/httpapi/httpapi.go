// Package httpapi exposes the manageable intra-host network over a
// JSON control plane — the operator-facing surface of the paper's
// vision: inspect the topology, read per-link and per-tenant usage,
// admit and evict tenants (compile -> schedule -> arbitrate), pull
// anomaly detections, and run diagnostics, all against the simulated
// host driven by explicit virtual-time advancement.
//
// Every JSON endpoint lives under the versioned prefix /api/v1/ and
// every non-2xx response carries the single typed error envelope
// {"error":{"code","message"}} (see envelope.go). Handlers honor
// r.Context(): a client that disconnects mid-operation gets a 499
// envelope instead of a partial body, and long virtual-time advances
// abort between slices.
//
// The simulation engine is single-threaded; an RWMutex serializes the
// handlers — mutating endpoints (and "reads" that settle lazy fabric
// accounting) take the write lock, immutable reads share the read lock
// — and virtual time moves only via POST /api/v1/advance (or the
// daemon's optional auto-advance loop), so API interactions are
// deterministic and replayable.
//
// The server is built over a snap.Session (NewWithSession), so every
// mutating command is journaled: POST /api/v1/snapshot checkpoints the
// host, POST /api/v1/restore replaces it with one rebuilt from a
// snapshot, and GET /api/v1/journal serves the recorded command log,
// ready for `ihdiag replay`.
package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/intent"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/vnet"
)

// Server wraps a journaled host with an HTTP control plane.
type Server struct {
	mu sync.RWMutex
	// sess is the live host. POST /restore swaps it under the write
	// lock; the pointer is atomic so the lock-free routes (metrics,
	// trace events, the event stream) read it safely too.
	sess    atomic.Pointer[snap.Session]
	rem     *remedy.Controller // nil when remediation is not wired in
	store   *store.Store       // nil when durable persistence is not wired in
	started time.Time
}

// NewWithSession builds a server over a recording session: every
// mutating API command lands in the session's journal and the
// snapshot/restore/journal endpoints are live.
func NewWithSession(sess *snap.Session) *Server {
	s := &Server{started: time.Now()}
	s.sess.Store(sess)
	return s
}

// SetStore attaches the durable store backing the session. The daemon
// calls it once at boot after Bootstrap/Recover already bound the
// store to the session as its entry sink; the server needs the handle
// so POST /snapshot also persists a checkpoint, POST /restore rewrites
// the store to match the swapped-in session, and /healthz reports
// store occupancy.
func (s *Server) SetStore(st *store.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store = st
}

// Manager returns the manager the server is currently backed by. A
// successful POST /api/v1/restore swaps it, so callers holding on to
// the manager across requests (the daemon's shutdown path) must
// re-read it here instead of caching the pointer.
func (s *Server) Manager() *core.Manager { return s.sess.Load().Manager() }

// Advance moves virtual time forward by d under the server's lock and
// returns the session's error — a failed durable append, say. The
// daemon's auto-advance loop uses it; tests may too. When a
// remediation controller is wired in, each advance is followed by one
// control-loop step — the single-host analogue of the fleet's
// between-epochs stepping. The step runs even when the advance
// reports an error: a failed append leaves the simulation advanced.
func (s *Server) Advance(d simtime.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.sess.Load().Advance(d)
	if s.rem != nil {
		s.rem.Step()
	}
	return err
}

// hostRef is the host a per-host route acts on: its name ("" on the
// single-host server), its journaled session, and its durable store
// (nil when persistence is not wired in).
type hostRef struct {
	name  string
	sess  *snap.Session
	store *store.Store
}

// hostRoutes mounts the per-host route table below prefix: Server
// mounts it at /api/v1/, FleetServer at /api/v1/fleet/hosts/{host}/.
// It holds every per-host route that leaves the host's clock, tenants
// and session alone; a fleet host moves only at epoch barriers and
// through placement. resolve finds
// the addressed host under the route's lock (lockNone routes
// synchronize on their own), or answers the error envelope and returns
// false. wrote, when set, runs after each lockWrite handler.
//
// Lock discipline: lockRead routes touch only immutable or
// copy-on-read state; lockWrite routes are "reads" that settle lazy
// fabric accounting; lockNone routes never stall the simulation — a
// wedged simulation never hides the evidence.
func hostRoutes(prefix string, resolve func(http.ResponseWriter, *http.Request, lockMode) (hostRef, bool),
	wrote func(hostRef)) []route {
	mount := func(method, pattern string, lock lockMode, handle func(http.ResponseWriter, *http.Request, hostRef)) route {
		return route{method, prefix + pattern, lock, func(w http.ResponseWriter, r *http.Request) {
			h, ok := resolve(w, r, lock)
			if !ok {
				return
			}
			handle(w, r, h)
			if wrote != nil && lock == lockWrite {
				wrote(h)
			}
		}}
	}
	return []route{
		mount("GET", "/topology", lockRead, getTopology),
		mount("GET", "/report", lockWrite, getReport),
		mount("GET", "/alerts", lockRead, getAlerts),
		mount("GET", "/detections", lockRead, getDetections),
		mount("GET", "/tenants", lockRead, getTenants),
		mount("GET", "/tenants/{id}/verify", lockWrite, getVerify),
		mount("GET", "/tenants/{id}/usage", lockWrite, getTenantUsage),
		mount("GET", "/telemetry", lockWrite, getTelemetry),
		mount("GET", "/fabric/solver", lockWrite, getSolver),
		mount("GET", "/trace/events", lockNone, getTraceEvents),
		mount("GET", "/events", lockNone, getEvents),
		// Snapshot takes the write lock: exporting state settles
		// accounting.
		mount("POST", "/snapshot", lockWrite, postSnapshot),
		mount("GET", "/journal", lockRead, getJournal),
		// Canonical state fingerprint — what the e2e harness compares
		// across a kill/restart cycle. Write lock: hashing exports
		// state, which settles lazy fabric accounting.
		mount("GET", "/state/hash", lockWrite, getStateHash),
	}
}

// apiRoutes is the server's v1 route table: the per-host table plus
// the routes only a single-host daemon serves. It is the single source
// of truth for Handler construction and for the route-completeness
// tests. Patterns are paths below APIPrefix.
func (s *Server) apiRoutes() []route {
	return append(hostRoutes("", s.host, nil), []route{
		{"POST", "/tenants", lockWrite, s.postTenant},
		{"DELETE", "/tenants/{id}", lockWrite, s.deleteTenant},
		{"POST", "/advance", lockWrite, s.postAdvance},
		// Batched mutations: one envelope, one journal entry, one
		// solver settle (see batch.go).
		{"POST", "/batch", lockWrite, s.postBatch},
		{"GET", "/diag/ping", lockWrite, s.getPing},
		{"GET", "/diag/trace", lockWrite, s.getTrace},
		{"GET", "/diag/perf", lockWrite, s.getPerf},
		{"GET", "/experiments/{id}", lockNone, s.getExperiment},
		{"POST", "/restore", lockWrite, s.postRestore},
		// Closed-loop remediation (unavailable unless the daemon was
		// started with -remedy).
		{"GET", "/remedy/status", lockRead, s.getRemedyStatus},
		{"GET", "/remedy/policy", lockRead, s.getRemedyPolicy},
		{"PUT", "/remedy/policy", lockWrite, s.putRemedyPolicy},
		{"GET", "/healthz", lockRead, s.getHealthz},
	}...)
}

// host resolves the server's one host. The session pointer is atomic
// and the store is set before serving, so lockNone routes need no lock.
func (s *Server) host(http.ResponseWriter, *http.Request, lockMode) (hostRef, bool) {
	return hostRef{sess: s.sess.Load(), store: s.store}, true
}

// Handler returns the API mux: the v1 table under /api/v1/ and the
// unversioned operational surface (/metrics, /debug/pprof/) which
// skips the server lock — the registry reads through the same atomics
// the writers use.
func (s *Server) Handler() http.Handler {
	return newMux(s.apiRoutes(), &s.mu, s.rootSpan, s.getMetrics)
}

// rootSpan runs under the write lock before every mutating route: it
// roots the command span at the request ID, so the journal entry the
// handler records (and every trace event its effects emit) carries it,
// joining the access log to the trace.
func (s *Server) rootSpan(r *http.Request) {
	if id := RequestID(r); id != "" {
		s.sess.Load().SetSpan(id)
	}
}

// DTOs.

type componentDTO struct {
	ID     string            `json:"id"`
	Kind   string            `json:"kind"`
	Socket int               `json:"socket"`
	Config map[string]string `json:"config,omitempty"`
}

type linkDTO struct {
	ID          string  `json:"id"`
	Class       string  `json:"class"`
	FigureRef   int     `json:"figure_ref"`
	CapacityBps float64 `json:"capacity_bps"`
	LatencyNs   int64   `json:"latency_ns"`
}

type topologyDTO struct {
	Name       string         `json:"name"`
	Components []componentDTO `json:"components"`
	Links      []linkDTO      `json:"links"`
}

func getTopology(w http.ResponseWriter, _ *http.Request, h hostRef) {
	topo := h.sess.Manager().Topology()
	out := topologyDTO{Name: topo.Name}
	for _, c := range topo.Components() {
		out.Components = append(out.Components, componentDTO{
			ID: string(c.ID), Kind: c.Kind.String(), Socket: c.Socket, Config: c.Config,
		})
	}
	for _, l := range topo.Links() {
		out.Links = append(out.Links, linkDTO{
			ID: string(l.ID), Class: l.Class.String(), FigureRef: l.Class.FigureRef(),
			CapacityBps: float64(l.Capacity), LatencyNs: int64(l.BaseLatency),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

type linkUsageDTO struct {
	ID          string             `json:"id"`
	Utilization float64            `json:"utilization"`
	RateBps     float64            `json:"rate_bps"`
	Failed      bool               `json:"failed,omitempty"`
	TenantBytes map[string]float64 `json:"tenant_bytes,omitempty"`
}

type reportDTO struct {
	VirtualTimeNs int64                         `json:"virtual_time_ns"`
	Links         []linkUsageDTO                `json:"links"`
	Tenants       map[string]map[string]float64 `json:"tenant_usage_bps"`
	Congested     []string                      `json:"congested,omitempty"`
}

func getReport(w http.ResponseWriter, _ *http.Request, h hostRef) {
	rep := h.sess.Manager().Monitor().UsageReport()
	out := reportDTO{
		VirtualTimeNs: int64(rep.At),
		Tenants:       make(map[string]map[string]float64),
	}
	for _, st := range rep.Links {
		lu := linkUsageDTO{
			ID: string(st.Link), Utilization: st.Utilization,
			RateBps: float64(st.CurrentRate), Failed: st.Failed,
		}
		if len(st.TenantBytes) > 0 {
			lu.TenantBytes = make(map[string]float64, len(st.TenantBytes))
			for t, b := range st.TenantBytes {
				lu.TenantBytes[string(t)] = b
			}
		}
		out.Links = append(out.Links, lu)
	}
	for _, tu := range rep.Tenants {
		m := make(map[string]float64)
		for class, r := range tu.ByClass {
			m[class.String()] = float64(r)
		}
		out.Tenants[string(tu.Tenant)] = m
	}
	for _, l := range rep.Congested {
		out.Congested = append(out.Congested, string(l))
	}
	writeJSON(w, http.StatusOK, out)
}

func getAlerts(w http.ResponseWriter, _ *http.Request, h hostRef) {
	writeJSON(w, http.StatusOK, h.sess.Manager().Monitor().Alerts())
}

func getDetections(w http.ResponseWriter, _ *http.Request, h hostRef) {
	type suspectDTO struct {
		Link  string  `json:"link"`
		Score float64 `json:"score"`
	}
	type detectionDTO struct {
		AtNs     int64        `json:"at_ns"`
		Pair     string       `json:"pair"`
		Lost     bool         `json:"lost"`
		Suspects []suspectDTO `json:"suspects"`
	}
	var out []detectionDTO
	for _, d := range h.sess.Manager().Anomaly().Detections() {
		dd := detectionDTO{AtNs: int64(d.At), Pair: d.Pair.String(), Lost: d.Lost}
		for _, su := range d.Suspects {
			dd.Suspects = append(dd.Suspects, suspectDTO{Link: string(su.Link), Score: su.Score})
		}
		out = append(out, dd)
	}
	writeJSON(w, http.StatusOK, out)
}

type targetDTO struct {
	Model    string  `json:"model,omitempty"`
	Src      string  `json:"src"`
	Dst      string  `json:"dst"`
	RateGbps float64 `json:"rate_gbps"`
	MaxLatNs int64   `json:"max_latency_ns,omitempty"`
}

type admitDTO struct {
	Tenant  string      `json:"tenant"`
	Targets []targetDTO `json:"targets"`
}

type viewDTO struct {
	Tenant   string             `json:"tenant"`
	Host     string             `json:"host"`
	LinksBps map[string]float64 `json:"guaranteed_links_bps"`
}

// decodeAdmit reads an admission body — the tenant and its targets —
// the shape POST /tenants and POST /fleet/tenants share.
func decodeAdmit(r *http.Request) (string, []intent.Target, error) {
	var req admitDTO
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return "", nil, err
	}
	targets := make([]intent.Target, 0, len(req.Targets))
	for _, t := range req.Targets {
		targets = append(targets, intent.Target{
			Tenant: fabric.TenantID(req.Tenant),
			Src:    topology.CompID(t.Src), Dst: topology.CompID(t.Dst),
			Rate:       topology.Gbps(t.RateGbps),
			MaxLatency: simtime.Duration(t.MaxLatNs),
		})
	}
	return req.Tenant, targets, nil
}

// newViewDTO encodes an admitted tenant's view as placed on host.
func newViewDTO(view *vnet.View, host string) viewDTO {
	out := viewDTO{Tenant: string(view.Tenant), Host: host,
		LinksBps: make(map[string]float64)}
	for l, rate := range view.Reservation.Links {
		out.LinksBps[string(l)] = float64(rate)
	}
	return out
}

func (s *Server) postTenant(w http.ResponseWriter, r *http.Request) {
	tenant, targets, err := decodeAdmit(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.sess.Load().Admit(tenant, targets)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, newViewDTO(view, view.HostName))
}

func (s *Server) deleteTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sess.Load().Evict(id); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func getTenants(w http.ResponseWriter, _ *http.Request, h hostRef) {
	type tenantDTO struct {
		ID      string   `json:"id"`
		Targets []string `json:"targets"`
	}
	out := []tenantDTO{}
	for _, t := range h.sess.Manager().Tenants() {
		td := tenantDTO{ID: string(t.ID)}
		for _, target := range t.Targets {
			td.Targets = append(td.Targets, target.String())
		}
		out = append(out, td)
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeMicros reads an advance body, {"micros":N}, and bounds N to
// (0, 1e7] — at most 10 s of virtual time per request.
func decodeMicros(r *http.Request) (simtime.Duration, error) {
	var req struct {
		Micros int64 `json:"micros"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return 0, err
	}
	if req.Micros <= 0 || req.Micros > 10_000_000 {
		return 0, fmt.Errorf("micros must be in (0, 1e7]")
	}
	return simtime.Duration(req.Micros) * simtime.Microsecond, nil
}

func (s *Server) postAdvance(w http.ResponseWriter, r *http.Request) {
	total, err := decodeMicros(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Advance in millisecond slices, checking for client cancellation
	// between them: a long advance aborts with the 499 envelope
	// instead of a partial body. Sliced advances coalesce in the
	// journal, so replay semantics are unchanged.
	sess := s.sess.Load()
	for done := simtime.Duration(0); done < total; {
		if err := r.Context().Err(); err != nil {
			writeErr(w, StatusClientClosedRequest, err)
			return
		}
		step := min(simtime.Millisecond, total-done)
		if err := sess.Advance(step); err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		done += step
	}
	writeJSON(w, http.StatusOK, map[string]int64{"virtual_time_ns": int64(sess.Now())})
}

// The diagnostic probes below are journaled commands: each runs to
// completion inside the session, bounded in virtual time, so replay
// re-runs exactly the probe the client saw.

func (s *Server) getPing(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rep, err := s.sess.Load().Ping(q.Get("src"), q.Get("dst"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report": rep.String(),
		"sent":   rep.Sent,
		"lost":   rep.Lost,
		"avg_ns": int64(rep.Avg),
		"p99_ns": int64(rep.P99),
	})
}

func (s *Server) getTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rep, err := s.sess.Load().Trace(q.Get("src"), q.Get("dst"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	type hopDTO struct {
		Link  string `json:"link"`
		RTTNs int64  `json:"rtt_ns"`
		HopNs int64  `json:"hop_ns"`
		Lost  bool   `json:"lost,omitempty"`
	}
	hops := make([]hopDTO, 0, len(rep.Hops))
	for _, h := range rep.Hops {
		hops = append(hops, hopDTO{Link: string(h.Link), RTTNs: int64(h.Cumulative),
			HopNs: int64(h.HopLatency), Lost: h.Lost})
	}
	writeJSON(w, http.StatusOK, map[string]any{"path": rep.Path.String(), "hops": hops})
}

func (s *Server) getPerf(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	rep, err := s.sess.Load().Perf(q.Get("src"), q.Get("dst"), q.Get("tenant"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report":            rep.String(),
		"achieved_bps":      float64(rep.Achieved),
		"path_capacity_bps": float64(rep.PathCapacity),
		"bottleneck":        string(rep.BottleneckLink),
	})
}

func getVerify(w http.ResponseWriter, r *http.Request, h hostRef) {
	id := fabric.TenantID(r.PathValue("id"))
	vs, err := h.sess.Manager().VerifyTenant(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	type verificationDTO struct {
		Path        string  `json:"path"`
		PromisedBps float64 `json:"promised_bps"`
		AchievedBps float64 `json:"achieved_bps"`
		Met         bool    `json:"met"`
		LatencyNs   int64   `json:"latency_ns"`
		LatencyMet  bool    `json:"latency_met"`
	}
	out := make([]verificationDTO, 0, len(vs))
	for _, v := range vs {
		out = append(out, verificationDTO{
			Path: v.Path.String(), PromisedBps: float64(v.Promised),
			AchievedBps: float64(v.Achieved), Met: v.Met,
			LatencyNs: int64(v.IdleLatency), LatencyMet: v.LatencyMet,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func getTenantUsage(w http.ResponseWriter, r *http.Request, h hostRef) {
	id := fabric.TenantID(r.PathValue("id"))
	rec := h.sess.Manager().Tenant(id)
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	type usageDTO struct {
		Link         string  `json:"link"`
		AllocatedBps float64 `json:"allocated_bps"`
		UsedBps      float64 `json:"used_bps"`
		Utilization  float64 `json:"utilization"`
	}
	var out []usageDTO
	for _, lu := range rec.View.UsageReport(h.sess.Manager().Fabric()) {
		out = append(out, usageDTO{
			Link: string(lu.Link), AllocatedBps: float64(lu.Allocated),
			UsedBps: float64(lu.Used), Utilization: lu.Utilization,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func getTelemetry(w http.ResponseWriter, r *http.Request, h hostRef) {
	pl := h.sess.Manager().Telemetry()
	if pl == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("telemetry pipeline disabled"))
		return
	}
	q := r.URL.Query()
	var since simtime.Time
	if v := q.Get("since_ns"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if n < 0 {
			// Virtual time starts at 0; a negative cutoff is a client
			// bug, not "everything" — same contract as the SSE ?since=
			// resume parameter.
			writeErr(w, http.StatusBadRequest, fmt.Errorf("since_ns must be non-negative, got %d", n))
			return
		}
		since = simtime.Time(n)
	}
	link := topology.LinkID(q.Get("link"))
	metric := telemetry.Metric(q.Get("metric"))
	tenant := fabric.TenantID(q.Get("tenant"))
	type pointDTO struct {
		AtNs   int64   `json:"at_ns"`
		Link   string  `json:"link"`
		Tenant string  `json:"tenant,omitempty"`
		Metric string  `json:"metric"`
		Value  float64 `json:"value"`
	}
	out := []pointDTO{}
	for _, p := range pl.Store().Since(since) {
		if link != "" && p.Link != link {
			continue
		}
		if metric != "" && p.Metric != metric {
			continue
		}
		if tenant != "" && p.Tenant != tenant {
			continue
		}
		out = append(out, pointDTO{
			AtNs: int64(p.At), Link: string(p.Link), Tenant: string(p.Tenant),
			Metric: string(p.Metric), Value: p.Value,
		})
	}
	o := pl.Overhead()
	writeJSON(w, http.StatusOK, map[string]any{
		"points":            out,
		"dropped":           pl.Store().Dropped(),
		"points_per_second": o.PointsPerSecond,
		"spool_bps":         float64(o.SpoolRate),
	})
}

// getMetrics renders the observability registry in Prometheus text
// exposition format. Lock-free with respect to the simulation.
func (s *Server) getMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.Manager().Obs().Registry.WritePrometheus(w)
}

type traceEventDTO struct {
	// BusSeq is the stream position assigned by the fan-out bus (the
	// SSE frame id); zero on plain ring dumps.
	BusSeq    uint64  `json:"bus_seq,omitempty"`
	Seq       uint64  `json:"seq"`
	VirtualNs int64   `json:"virtual_ns"`
	WallNs    int64   `json:"wall_ns"`
	Kind      string  `json:"kind"`
	Subject   string  `json:"subject,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Value     float64 `json:"value,omitempty"`
	WallDurNs int64   `json:"wall_dur_ns,omitempty"`
	// Span is the journaled command this event is an effect of.
	Span string `json:"span,omitempty"`
	// Host is the originating host on fleet streams.
	Host string `json:"host,omitempty"`
}

// getTraceEvents dumps the event ring as JSON, oldest first. Query
// params: kind= filters by event kind name, limit= keeps only the
// newest N matching events.
func getTraceEvents(w http.ResponseWriter, r *http.Request, h hostRef) {
	tr := h.sess.Manager().Obs().Tracer
	q := r.URL.Query()
	var kindFilter obs.EventKind
	if v := q.Get("kind"); v != "" {
		kindFilter = obs.KindByName(v)
		if kindFilter == obs.KindUnknown {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown event kind %q", v))
			return
		}
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	events := tr.Snapshot()
	out := make([]traceEventDTO, 0, len(events))
	for _, ev := range events {
		if kindFilter != obs.KindUnknown && ev.Kind != kindFilter {
			continue
		}
		out = append(out, traceEventDTO{
			Seq: ev.Seq, VirtualNs: int64(ev.Virtual), WallNs: ev.Wall,
			Kind: ev.Kind.String(), Subject: ev.Subject, Detail: ev.Detail,
			Value: ev.Value, WallDurNs: int64(ev.WallDur), Span: ev.Span,
		})
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"events":  out,
		"total":   tr.Total(),
		"dropped": tr.Dropped(),
	})
}

// getEvents streams the host's live event bus as server-sent events.
// lockNone: the bus synchronizes on its own and a stalled client must
// never hold a server lock.
func getEvents(w http.ResponseWriter, r *http.Request, h hostRef) {
	streamSSE(w, r, h.sess.Manager().Obs().Bus)
}

// buildVersion reports the main module version from build info
// ("(devel)" for tree builds).
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// getHealthz reports liveness: build info, uptime, the virtual clock,
// coarse observability counts, and a per-subsystem status map. Runs
// under the server lock because it reads simulation state.
func (s *Server) getHealthz(w http.ResponseWriter, _ *http.Request) {
	sess := s.sess.Load()
	mgr := sess.Manager()
	o := mgr.Obs()
	goVersion := runtime.Version()
	module, vcsRev := "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				vcsRev = kv.Value
			}
		}
	}
	// Degradation roll-up: an alerted heartbeat pair or an open
	// remediation incident flips the top-level status, so `ihctl
	// health` (which exits non-zero on anything but "ok") is a usable
	// fleet-automation probe.
	anomalyAlerted := mgr.Anomaly().Alerted()
	remedyBlock, remedyDegraded := remedyHealth(s.controller())
	subsystems := map[string]any{
		"fabric": map[string]any{
			"status":       "ok",
			"active_flows": mgr.Fabric().Flows(),
		},
		"snap": map[string]any{
			"status":          "ok",
			"enabled":         true,
			"journal_entries": sess.Journal().Len(),
		},
		"telemetry": map[string]any{
			"status": boolStatus(mgr.Telemetry() != nil, "ok", "disabled"),
		},
		"obs_bus": busHealth(o.Bus),
		"anomaly": map[string]any{
			"status":     boolStatus(!anomalyAlerted, "ok", "degraded"),
			"detections": mgr.Anomaly().DetectionCount(),
		},
		"remedy": remedyBlock,
	}
	if s.store != nil {
		st := s.store.Stats()
		subsystems["store"] = map[string]any{
			"status":       "ok",
			"dir":          st.Dir,
			"sync":         string(st.Sync),
			"wal_records":  st.WalRecords,
			"wal_segments": st.WalSegments,
			"snapshot_seq": st.SnapshotSeq,
		}
	} else {
		subsystems["store"] = map[string]any{"status": "disabled"}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":           boolStatus(!anomalyAlerted && !remedyDegraded, "ok", "degraded"),
		"version":          buildVersion(),
		"go_version":       goVersion,
		"module":           module,
		"vcs_revision":     vcsRev,
		"uptime_seconds":   time.Since(s.started).Seconds(),
		"virtual_time_ns":  int64(mgr.Engine().Now()),
		"events_processed": mgr.Engine().Processed,
		"metric_count":     o.Registry.MetricCount(),
		"trace_events":     o.Tracer.Total(),
		"trace_dropped":    o.Tracer.Dropped(),
		"active_flows":     mgr.Fabric().Flows(),
		"tenants":          len(mgr.Tenants()),
		"subsystems":       subsystems,
	})
}

// busHealth is the obs_bus block of both servers' healthz.
func busHealth(b *obs.Bus) map[string]any {
	return map[string]any{
		"status":      "ok",
		"subscribers": b.Subscribers(),
		"published":   b.Seq(),
		"dropped":     b.Dropped(),
	}
}

// boolStatus maps a condition to one of two status strings.
func boolStatus(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// postSnapshot writes a checkpoint of the host's session as the
// response body — a complete ihnet-snapshot document the client can
// save and later POST to /api/v1/restore or feed to `ihdiag replay`.
// Fleet hosts booted from -hosts-dir embed their spec document in the
// session config, so their snapshots are self-describing too. With a
// store attached the checkpoint is persisted first, and the X-Store-*
// headers report what it cost.
func postSnapshot(w http.ResponseWriter, _ *http.Request, h hostRef) {
	if h.store != nil {
		info, err := h.store.SaveSnapshot(h.sess.BuildPayload())
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("persist checkpoint: %w", err))
			return
		}
		w.Header().Set("X-Store-Snapshot-Seq", strconv.FormatUint(info.Seq, 10))
		w.Header().Set("X-Store-Chunks-Written", strconv.Itoa(info.ChunksWritten))
		w.Header().Set("X-Store-Chunks-Reused", strconv.Itoa(info.ChunksReused))
	}
	filename := "ihnet-snapshot.json"
	if h.name != "" {
		filename = h.name + "-snapshot.json"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", filename))
	if err := h.sess.Snapshot(w); err != nil {
		// Headers are gone; the truncated body will fail checksum
		// verification client-side, which is the protection we want.
		fmt.Fprintf(w, "\n{\"error\": %q}\n", err.Error())
	}
}

// postRestore replaces the live session with one rebuilt from the
// posted snapshot. The swap is atomic under the write lock: until the
// replayed state verifies against the recorded hash, the old session
// keeps serving. A wired remediation controller watches the old
// manager, so it is rebuilt over the restored one with the same policy.
func (s *Server) postRestore(w http.ResponseWriter, r *http.Request) {
	restored, err := snap.Restore(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var rem *remedy.Controller
	if s.rem != nil {
		if rem, err = remedy.New(restored.Manager(), remedy.SessionActuator{Sess: restored},
			remedy.Options{Policy: s.rem.Policy()}); err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("rebuild remediation: %w", err))
			return
		}
	}
	// Rewrite the durable store to match the incoming session before
	// the swap: if the rewrite fails the old session keeps serving and
	// the store still describes it.
	if s.store != nil {
		if err := s.store.Reset(restored.Config(), restored.Journal().Entries); err != nil {
			rem.Close()
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("rewrite store: %w", err))
			return
		}
		s.store.Resume(restored)
	}
	old := s.sess.Swap(restored)
	old.SetSink(nil)
	old.Manager().Stop()
	s.rem.Close()
	s.rem = rem
	writeJSON(w, http.StatusOK, map[string]any{
		"restored":        true,
		"virtual_time_ns": int64(restored.Now()),
		"journal_entries": restored.Journal().Len(),
		"state_hash":      snap.StateHash(restored.Manager()),
	})
}

// getStateHash returns the canonical state fingerprint plus enough
// context (virtual time, journal length, store occupancy) for the e2e
// harness to assert byte-identical recovery after a kill/restart.
// Fleet hosts also carry their name.
func getStateHash(w http.ResponseWriter, _ *http.Request, h hostRef) {
	mgr := h.sess.Manager()
	out := map[string]any{
		"journal_entries": h.sess.Journal().Len(),
		"state_hash":      snap.StateHash(mgr),
		"virtual_time_ns": int64(mgr.Engine().Now()),
	}
	if h.name != "" {
		out["host"] = h.name
	}
	if h.store != nil {
		st := h.store.Stats()
		out["store_wal_records"] = st.WalRecords
		out["store_snapshot_seq"] = st.SnapshotSeq
	}
	writeJSON(w, http.StatusOK, out)
}

// getJournal serves the recorded command log.
func getJournal(w http.ResponseWriter, _ *http.Request, h hostRef) {
	w.Header().Set("Content-Type", "application/json")
	j := h.sess.Journal()
	_ = j.Encode(w)
}

func (s *Server) getExperiment(w http.ResponseWriter, r *http.Request) {
	id := strings.ToUpper(r.PathValue("id"))
	exp, err := experiments.ByID(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	tab, err := exp.Run(42)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": tab.ID, "title": tab.Title, "columns": tab.Columns,
		"rows": tab.Rows, "notes": tab.Notes, "rendered": tab.Render(),
	})
}
