package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/remedy"
	"repro/internal/simtime"
)

// errNoRemedy is returned by the remediation endpoints on daemons
// started without the controller.
var errNoRemedy = fmt.Errorf("remediation controller not enabled: start the daemon with -remedy")

// remedyController is what the shared remedy handlers need from
// either server's controller: the single-host Controller or the
// per-host FleetController.
type remedyController interface {
	Degraded() bool
	Stats() remedy.Stats
	MTTRs() []simtime.Duration
	Policy() remedy.Policy
	SetPolicy(remedy.Policy) error
}

// remedySummary heads both remedy status documents: cumulative
// accounting and the MTTR percentiles (virtual time, so they are
// comparable across machines).
type remedySummary struct {
	Enabled   bool         `json:"enabled"`
	Degraded  bool         `json:"degraded"`
	Stats     remedy.Stats `json:"stats"`
	MTTRp50Us float64      `json:"mttr_p50_us"`
	MTTRp99Us float64      `json:"mttr_p99_us"`
}

func summarize(c remedyController) remedySummary {
	mttrs := c.MTTRs()
	return remedySummary{
		Enabled:   true,
		Degraded:  c.Degraded(),
		Stats:     c.Stats(),
		MTTRp50Us: float64(remedy.Percentile(mttrs, 50)) / float64(simtime.Microsecond),
		MTTRp99Us: float64(remedy.Percentile(mttrs, 99)) / float64(simtime.Microsecond),
	}
}

// remedyStatusDTO is the closed-loop controller's operator view: the
// summary plus the incident ledger.
type remedyStatusDTO struct {
	remedySummary
	Incidents []remedy.Incident `json:"incidents"`
}

func remedyStatus(c *remedy.Controller) remedyStatusDTO {
	return remedyStatusDTO{remedySummary: summarize(c), Incidents: c.Incidents()}
}

// remedyHealth is the remedy block of both servers' healthz, and
// whether an open incident degrades the daemon. c is nil when
// remediation is off.
func remedyHealth(c remedyController) (map[string]any, bool) {
	if c == nil {
		return map[string]any{"status": "disabled"}, false
	}
	degraded := c.Degraded()
	st := c.Stats()
	return map[string]any{
		"status":         boolStatus(!degraded, "ok", "degraded"),
		"open_incidents": st.Open,
		"resolved":       st.Resolved,
	}, degraded
}

// getPolicy serves GET of the rule table; c is nil when remediation
// is off.
func getPolicy(w http.ResponseWriter, c remedyController) {
	if c == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	writeJSON(w, http.StatusOK, c.Policy())
}

// putPolicy swaps the rule table. Policies are out-of-band
// configuration — the controller never runs during replay — so the
// swap is not journaled; it still takes the write lock because the
// next Step reads it.
func putPolicy(w http.ResponseWriter, r *http.Request, c remedyController) {
	if c == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	p, err := parsePolicyBody(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := c.SetPolicy(*p); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Policy())
}

// SetRemedy wires a remediation controller into the server: the status
// and policy endpoints come alive, Advance steps the control loop, and
// healthz gains the remedy subsystem. Call before serving traffic. The
// server owns c from here: POST /restore closes it and rebuilds one,
// with the same policy, over the restored session.
func (s *Server) SetRemedy(c *remedy.Controller) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rem = c
}

// controller returns the wired controller, or a nil interface when
// remediation is off.
func (s *Server) controller() remedyController {
	if s.rem == nil {
		return nil
	}
	return s.rem
}

func (s *Server) getRemedyStatus(w http.ResponseWriter, _ *http.Request) {
	if s.rem == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	writeJSON(w, http.StatusOK, remedyStatus(s.rem))
}

func (s *Server) getRemedyPolicy(w http.ResponseWriter, _ *http.Request) {
	getPolicy(w, s.controller())
}

func (s *Server) putRemedyPolicy(w http.ResponseWriter, r *http.Request) {
	putPolicy(w, r, s.controller())
}

// fleetRemedyStatusDTO aggregates the per-host controllers with a
// per-host breakdown (only degraded hosts carry incident lists, to
// keep large-fleet payloads proportional to trouble, not size).
type fleetRemedyStatusDTO struct {
	remedySummary
	Hosts map[string]remedyStatusDTO `json:"hosts"`
}

// SetRemedy wires a fleet remediation controller: per-host controllers
// stepped between epoch barriers by Advance.
func (s *FleetServer) SetRemedy(fc *remedy.FleetController) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rem = fc
}

// controller returns the wired fleet controller, or a nil interface
// when remediation is off.
func (s *FleetServer) controller() remedyController {
	if s.rem == nil {
		return nil
	}
	return s.rem
}

func (s *FleetServer) getFleetRemedyStatus(w http.ResponseWriter, _ *http.Request) {
	if s.rem == nil {
		writeErr(w, http.StatusNotFound, errNoRemedy)
		return
	}
	out := fleetRemedyStatusDTO{
		remedySummary: summarize(s.rem),
		Hosts:         make(map[string]remedyStatusDTO, len(s.rem.Hosts())),
	}
	for _, name := range s.rem.Hosts() {
		hs := remedyStatus(s.rem.Controller(name))
		if !hs.Degraded {
			hs.Incidents = nil
		}
		out.Hosts[name] = hs
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *FleetServer) getFleetRemedyPolicy(w http.ResponseWriter, _ *http.Request) {
	getPolicy(w, s.controller())
}

func (s *FleetServer) putFleetRemedyPolicy(w http.ResponseWriter, r *http.Request) {
	putPolicy(w, r, s.controller())
}

// parsePolicyBody decodes and validates a policy document via the
// package's canonical parser (defaults applied, rule table checked).
// Body size is already bounded by the mux-level MaxBytesReader cap.
func parsePolicyBody(r io.Reader) (*remedy.Policy, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty policy body")
	}
	// Round-trip through json.Valid first for a crisper error than the
	// parser's.
	if !json.Valid(raw) {
		return nil, fmt.Errorf("policy body is not valid JSON")
	}
	p, err := remedy.ParsePolicy(raw)
	if err != nil {
		return nil, err
	}
	return &p, nil
}
