package httpapi

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/fabric"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
)

// FleetServer is the control plane of a multi-host daemon: one ihnetd
// process managing N simulated hosts, advanced concurrently by the
// fleet runner's epoch barriers. It speaks the same v1 contract as the
// single-host Server — every endpoint under /api/v1/, the typed error
// envelope, 499 on client abort — and serves each host through its
// per-host route table, with the fleet verbs layered on top.
//
// One RWMutex serializes the fleet: the runner is not safe for
// concurrent use, and placement/migration decisions must observe hosts
// parked at an epoch barrier, not mid-advance.
type FleetServer struct {
	mu      sync.RWMutex
	fleet   *fleet.Fleet
	runner  *fleet.ShardedRunner
	reg     *obs.Registry
	rem     *remedy.FleetController // nil when remediation is not wired in
	fstore  *store.FleetStore       // nil when durable persistence is not wired in
	started time.Time
}

// NewFleetServer builds the fleet control plane over the sharded
// engine (one shard degenerates to the classic single-barrier
// runner). A nil cfg.Registry is replaced with a fresh one so
// /metrics always has a surface to serve, and a nil cfg.Bus with a
// fresh fan-in bus so /fleet/events always streams (the shard runners
// wire every host's tracer into it).
func NewFleetServer(f *fleet.Fleet, cfg fleet.ShardConfig) *FleetServer {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Bus == nil {
		cfg.Bus = obs.NewBus(fleetBusCapacity)
	}
	return &FleetServer{
		fleet:   f,
		runner:  fleet.NewShardedRunner(f, cfg),
		reg:     cfg.Registry,
		started: time.Now(),
	}
}

// fleetBusCapacity sizes the fleet bus's resume ring: N hosts multiply
// the event rate, so retain more than a single host's default.
const fleetBusCapacity = 16384

// SetFleetStore attaches the durable fleet store. The daemon calls it
// once at boot, after every host session has been bootstrapped or
// recovered against its per-host store; the server needs the handle so
// per-host snapshots also persist and /healthz reports occupancy.
func (s *FleetServer) SetFleetStore(fs *store.FleetStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fstore = fs
}

// Fleet returns the underlying fleet (the daemon's shutdown path walks
// it to stop every manager).
func (s *FleetServer) Fleet() *fleet.Fleet { return s.fleet }

// Registry returns the fleet-level metrics registry (epoch timings,
// auth counters) — the one /metrics serves first.
func (s *FleetServer) Registry() *obs.Registry { return s.reg }

// Workers returns the resolved per-shard worker count.
func (s *FleetServer) Workers() int { return s.runner.Workers() }

// Runner returns the sharded runner driving the fleet (so a
// remediation controller built on top can quarantine hosts through it).
func (s *FleetServer) Runner() *fleet.ShardedRunner { return s.runner }

// Advance moves the whole fleet forward by d under the server's lock
// and returns the runner's error — the daemon's auto-advance loop
// drives this. A host that fails mid-run is quarantined, not reported
// here. With remediation wired in, the per-host controllers step once
// after the outer barrier, in host order, exactly as the chaos harness
// does between epochs; their actions mutate host state outside the
// epoch loop, so every shard's roll-up cache is invalidated afterwards.
func (s *FleetServer) Advance(d simtime.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.runner.RunFor(context.Background(), d)
	if s.rem != nil {
		s.rem.StepAll()
		s.runner.MarkAllDirty()
	}
	return err
}

// apiRoutes is the fleet daemon's v1 route table. Everything that
// touches simulation state (including "reads" that settle lazy fabric
// accounting, like pressure and usage reports) takes the write lock;
// healthz, which reads clocks and counts, shares the read lock.
func (s *FleetServer) apiRoutes() []route {
	// A write-locked per-host route settles or exports the host's
	// state, which moves its metrics: its roll-up must refold.
	dirty := func(h hostRef) { s.runner.MarkDirty(h.name) }
	return append([]route{
		{"GET", "/fleet/hosts", lockWrite, s.getHosts},
		{"GET", "/fleet/report", lockWrite, s.getFleetReport},
		{"POST", "/fleet/advance", lockWrite, s.postFleetAdvance},
		{"POST", "/fleet/tenants", lockWrite, s.postPlace},
		{"DELETE", "/fleet/tenants/{id}", lockWrite, s.deleteFleetTenant},
		{"POST", "/fleet/tenants/{id}/migrate", lockWrite, s.postMigrate},
		{"POST", "/fleet/rebalance", lockWrite, s.postRebalance},
		{"GET", "/fleet/fabric/solver", lockWrite, s.getFleetSolver},
		// The fleet fingerprint the e2e harness compares across a
		// kill/restart cycle. Write lock: hashing exports state, which
		// settles lazy fabric accounting.
		{"GET", "/fleet/state/hash", lockWrite, s.getFleetStateHash},
		{"GET", "/fleet/shards", lockRead, s.getFleetShards},
		// The observability surface is lockNone: roll-ups read host
		// registries through the same atomics the writers use, and a
		// stalled SSE client must never hold a fleet lock.
		{"GET", "/fleet/metrics/rollup", lockNone, s.getFleetRollup},
		{"GET", "/fleet/events", lockNone, s.getFleetEvents},
		// Closed-loop remediation (unavailable unless the daemon was
		// started with -remedy).
		{"GET", "/fleet/remedy/status", lockRead, s.getFleetRemedyStatus},
		{"GET", "/fleet/remedy/policy", lockRead, s.getFleetRemedyPolicy},
		{"PUT", "/fleet/remedy/policy", lockWrite, s.putFleetRemedyPolicy},
		{"GET", "/healthz", lockRead, s.getFleetHealthz},
	}, hostRoutes("/fleet/hosts/{host}", s.host, dirty)...)
}

// errNoSession answers per-host routes on fleet hosts built without a
// snap session.
var errNoSession = fmt.Errorf("journaling not enabled: host was built without a snap session")

// host resolves the {host} path segment: 404 for a host the fleet does
// not have or one without a session, 500 when its store cannot be
// opened. lockNone routes look the host up under the read lock.
func (s *FleetServer) host(w http.ResponseWriter, r *http.Request, lock lockMode) (hostRef, bool) {
	if lock == lockNone {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	name := r.PathValue("host")
	h := s.fleet.Host(name)
	if h == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown host %q", name))
		return hostRef{}, false
	}
	if h.Sess == nil {
		writeErr(w, http.StatusNotFound, errNoSession)
		return hostRef{}, false
	}
	ref := hostRef{name: h.Name, sess: h.Sess}
	if s.fstore != nil {
		st, err := s.fstore.Host(h.Name)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("open host store: %w", err))
			return hostRef{}, false
		}
		ref.store = st
	}
	return ref, true
}

// Handler returns the fleet mux: the v1 table, the fleet runner's
// metrics at /metrics, and pprof.
func (s *FleetServer) Handler() http.Handler {
	return newMux(s.apiRoutes(), &s.mu, nil, s.getMetrics)
}

// getMetrics serves runner-level metrics first (epoch timings,
// quarantines), then the fleet roll-up: every host's counters and
// histograms merged into one scrape, so a 256-host fleet is one
// Prometheus target.
func (s *FleetServer) getMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
	_ = s.runner.Rollup().WritePrometheus(w)
}

type fleetHostDTO struct {
	Name          string  `json:"name"`
	VirtualTimeNs int64   `json:"virtual_time_ns"`
	Pressure      float64 `json:"pressure"`
	Tenants       int     `json:"tenants"`
	Detections    int     `json:"detections"`
	Quarantined   string  `json:"quarantined,omitempty"`
}

func (s *FleetServer) hostDTOs() []fleetHostDTO {
	failed := s.runner.Failed()
	hosts := s.fleet.Hosts()
	out := make([]fleetHostDTO, 0, len(hosts))
	for _, h := range hosts {
		d := fleetHostDTO{
			Name:          h.Name,
			VirtualTimeNs: int64(h.Mgr.Engine().Now()),
			Pressure:      h.Pressure(),
			Tenants:       len(h.Mgr.Tenants()),
			Detections:    len(h.Mgr.Anomaly().Detections()),
		}
		if err := failed[h.Name]; err != nil {
			d.Quarantined = err.Error()
		}
		out = append(out, d)
	}
	return out
}

func (s *FleetServer) getHosts(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.hostDTOs())
}

func (s *FleetServer) getFleetReport(w http.ResponseWriter, _ *http.Request) {
	type tenantDTO struct {
		ID   string `json:"id"`
		Host string `json:"host"`
	}
	tenants := []tenantDTO{}
	for _, h := range s.fleet.Hosts() {
		for _, rec := range h.Mgr.Tenants() {
			tenants = append(tenants, tenantDTO{ID: string(rec.ID), Host: h.Name})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"virtual_time_ns": int64(s.runner.Now()),
		"workers":         s.runner.Workers(),
		"shards":          s.runner.Shards(),
		"epoch_ns":        int64(s.runner.Epoch()),
		"hosts":           s.hostDTOs(),
		"tenants":         tenants,
	})
}

// postFleetAdvance advances all live hosts to a shared barrier. The
// request context flows into the runner: a client that disconnects
// aborts the run at the next epoch barrier — the fleet is never left
// mid-epoch — and gets the 499 envelope.
func (s *FleetServer) postFleetAdvance(w http.ResponseWriter, r *http.Request) {
	d, err := decodeMicros(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rep, err := s.runner.RunFor(r.Context(), d)
	if rep.Aborted {
		writeErr(w, StatusClientClosedRequest, err)
		return
	}
	failed := make(map[string]string, len(rep.Failed))
	for name, ferr := range rep.Failed {
		failed[name] = ferr.Error()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"virtual_time_ns": int64(s.runner.Now()),
		"epochs":          rep.Epochs,
		"outer_epochs":    rep.OuterEpochs,
		"hosts_advanced":  rep.HostsAdvanced,
		"failed":          failed,
	})
}

// postPlace admits a tenant on the least-pressured host that accepts
// it — the fleet-level counterpart of POST /api/v1/tenants.
func (s *FleetServer) postPlace(w http.ResponseWriter, r *http.Request) {
	tenant, targets, err := decodeAdmit(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	view, host, err := s.fleet.Place(fabric.TenantID(tenant), targets)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	s.runner.MarkDirty(host.Name)
	writeJSON(w, http.StatusCreated, newViewDTO(view, host.Name))
}

func (s *FleetServer) deleteFleetTenant(w http.ResponseWriter, r *http.Request) {
	id := fabric.TenantID(r.PathValue("id"))
	host, err := s.fleet.Evict(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.runner.MarkDirty(host.Name)
	writeJSON(w, http.StatusOK, map[string]string{
		"evicted": string(id), "host": host.Name,
	})
}

// postMigrate re-admits the tenant on the named destination and evicts
// it from its current host — the reconfiguration-free migration the
// paper's virtual abstraction promises.
func (s *FleetServer) postMigrate(w http.ResponseWriter, r *http.Request) {
	id := fabric.TenantID(r.PathValue("id"))
	var req struct {
		Host string `json:"host"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Host == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("migrate needs a destination host"))
		return
	}
	src := s.fleet.Locate(id)
	view, err := s.fleet.Migrate(id, req.Host)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	if src != nil {
		s.runner.MarkDirty(src.Name)
	}
	s.runner.MarkDirty(req.Host)
	writeJSON(w, http.StatusOK, newViewDTO(view, req.Host))
}

func (s *FleetServer) postRebalance(w http.ResponseWriter, _ *http.Request) {
	rep := s.fleet.Rebalance()
	s.runner.MarkAllDirty()
	moved := make(map[string]string, len(rep.Moved))
	for tenant, host := range rep.Moved {
		moved[string(tenant)] = host
	}
	failed := make([]string, 0, len(rep.Failed))
	for _, tenant := range rep.Failed {
		failed = append(failed, string(tenant))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"moved": moved, "failed": failed,
	})
}

// getFleetStateHash folds every host's state hash — in host-name order,
// so the digest is stable regardless of placement history — into one
// fleet fingerprint. Two fleets with the same fingerprint are
// byte-identical host by host; the kill/restart e2e compares exactly
// this.
func (s *FleetServer) getFleetStateHash(w http.ResponseWriter, _ *http.Request) {
	hosts := s.fleet.Hosts()
	perHost := make(map[string]string, len(hosts))
	digest := sha256.New()
	for _, h := range hosts {
		hash := snap.StateHash(h.Mgr)
		perHost[h.Name] = hash
		fmt.Fprintf(digest, "%s=%s\n", h.Name, hash)
	}
	s.runner.MarkAllDirty()
	writeJSON(w, http.StatusOK, map[string]any{
		"fleet_hash":      "sha256:" + hex.EncodeToString(digest.Sum(nil)),
		"hosts":           len(hosts),
		"virtual_time_ns": int64(s.runner.Now()),
		"host_hashes":     perHost,
	})
}

// getFleetRollup serves the merged fleet snapshot as JSON: counters
// summed, gauges last-write-wins with source tags, histograms merged
// bucket-wise with quantile error bounds preserved. The fold is
// hierarchical and cached: only shards that advanced or mutated since
// the last scrape are refolded, so back-to-back scrapes of an idle
// fleet never touch a host registry (see rollup_cache_hits/misses on
// GET /fleet/shards).
func (s *FleetServer) getFleetRollup(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Rollup())
}

// getFleetShards reports the sharded engine's topology and health:
// per-shard host counts, clocks, epoch/advance counters, quarantines,
// and the roll-up cache's hit/miss/refold accounting.
func (s *FleetServer) getFleetShards(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.runner.Stats())
}

// getFleetEvents streams the fleet fan-in bus — every host's events,
// tagged with the originating host, plus the runner's epoch barriers —
// as server-sent events.
func (s *FleetServer) getFleetEvents(w http.ResponseWriter, r *http.Request) {
	streamSSE(w, r, s.runner.Bus())
}

func (s *FleetServer) getFleetHealthz(w http.ResponseWriter, _ *http.Request) {
	failed := s.runner.Failed()
	quarantinedHosts := make([]string, 0, len(failed))
	for name := range failed {
		quarantinedHosts = append(quarantinedHosts, name)
	}
	sort.Strings(quarantinedHosts)
	remedyBlock, remedyDegraded := remedyHealth(s.controller())
	st := s.runner.Stats()
	subsystems := map[string]any{
		"runner": map[string]any{
			"status":       boolStatus(len(failed) == 0, "ok", "degraded"),
			"workers":      s.runner.Workers(),
			"shards":       s.runner.Shards(),
			"outer_every":  s.runner.OuterEvery(),
			"outer_epochs": st.OuterEpochs,
			"quarantined":  quarantinedHosts,
		},
		"rollup_cache": map[string]any{
			"status": "ok",
			"hits":   st.RollupCacheHits,
			"misses": st.RollupCacheMisses,
		},
		"obs_bus": busHealth(s.runner.Bus()),
		"remedy":  remedyBlock,
	}
	if s.fstore != nil {
		fst := s.fstore.Stats()
		subsystems["store"] = map[string]any{
			"status":            "ok",
			"dir":               fst.Dir,
			"sync":              string(fst.Sync),
			"hosts":             fst.Hosts,
			"wal_records":       fst.WalRecords,
			"wal_segments":      fst.WalSegments,
			"snapshotted_hosts": fst.SnapshottedHosts,
		}
	} else {
		subsystems["store"] = map[string]any{"status": "disabled"}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":          boolStatus(len(failed) == 0 && !remedyDegraded, "ok", "degraded"),
		"mode":            "fleet",
		"version":         buildVersion(),
		"go_version":      runtime.Version(),
		"hosts":           len(s.fleet.Hosts()),
		"quarantined":     len(failed),
		"workers":         s.runner.Workers(),
		"shards":          s.runner.Shards(),
		"epoch_ns":        int64(s.runner.Epoch()),
		"uptime_seconds":  time.Since(s.started).Seconds(),
		"virtual_time_ns": int64(s.runner.Now()),
		"subsystems":      subsystems,
	})
}
