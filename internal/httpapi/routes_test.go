package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/simtime"
	"repro/internal/snap"
)

// TestAllRoutesVersioned walks both route tables (single-host and
// fleet) and asserts the v1 invariants: every JSON endpoint mounts
// under /api/v1/, patterns are well-formed, and no method+path pair is
// registered twice.
func TestAllRoutesVersioned(t *testing.T) {
	s, _ := newServer(t)
	tables := map[string][]route{
		"host":  s.apiRoutes(),
		"fleet": NewFleetServer(fleet.New(), fleet.ShardConfig{}).apiRoutes(),
	}
	for name, routes := range tables {
		if len(routes) == 0 {
			t.Fatalf("%s: empty route table", name)
		}
		seen := make(map[string]bool)
		for _, rt := range routes {
			if !strings.HasPrefix(rt.Path(), APIPrefix+"/") {
				t.Errorf("%s: route %s %s escapes the version prefix", name, rt.Method, rt.Path())
			}
			if !strings.HasPrefix(rt.Pattern, "/") || strings.HasSuffix(rt.Pattern, "/") {
				t.Errorf("%s: malformed pattern %q", name, rt.Pattern)
			}
			key := rt.Method + " " + rt.Pattern
			if seen[key] {
				t.Errorf("%s: duplicate route %s", name, key)
			}
			seen[key] = true
			if rt.Handler == nil {
				t.Errorf("%s: route %s has no handler", name, key)
			}
		}
	}
}

// TestHostRoutesMountedOnBothServers: the per-host table is mounted
// whole by both servers — at its own pattern on the single-host server
// and under /fleet/hosts/{host} on the fleet server, with the same
// method and lock mode — and the routes that move a host's clock,
// tenants or session have no fleet mount.
func TestHostRoutesMountedOnBothServers(t *testing.T) {
	s, _ := newServer(t)
	locks := func(routes []route) map[string]lockMode {
		m := make(map[string]lockMode, len(routes))
		for _, rt := range routes {
			m[rt.Method+" "+rt.Pattern] = rt.Lock
		}
		return m
	}
	host := locks(s.apiRoutes())
	fl := locks(NewFleetServer(fleet.New(), fleet.ShardConfig{}).apiRoutes())
	const mount = "/fleet/hosts/{host}"
	shared := hostRoutes("", nil, nil)
	for _, hr := range shared {
		key := hr.Method + " " + hr.Pattern
		if lock, ok := host[key]; !ok || lock != hr.Lock {
			t.Errorf("host server: %s mounted=%v lock=%v, want lock %v", key, ok, lock, hr.Lock)
		}
		fkey := hr.Method + " " + mount + hr.Pattern
		if lock, ok := fl[fkey]; !ok || lock != hr.Lock {
			t.Errorf("fleet server: %s mounted=%v lock=%v, want lock %v", fkey, ok, lock, hr.Lock)
		}
	}
	hostOnly := []string{
		"POST /tenants", "DELETE /tenants/{id}", "POST /advance", "POST /batch",
		"GET /diag/ping", "GET /diag/trace", "GET /diag/perf", "POST /restore",
		"GET /remedy/status", "GET /remedy/policy", "PUT /remedy/policy",
		"GET /experiments/{id}", "GET /healthz",
	}
	for _, key := range hostOnly {
		if _, ok := host[key]; !ok {
			t.Errorf("host server lost %s", key)
		}
		method, pattern, _ := strings.Cut(key, " ")
		if _, ok := fl[method+" "+mount+pattern]; ok {
			t.Errorf("host-only route %s has a fleet mount", key)
		}
	}
	if want := len(shared) + len(hostOnly); len(host) != want {
		t.Errorf("host server has %d routes, want %d shared + host-only", len(host), want)
	}
}

// TestFleetOfOneServesTheSameHost feeds a single-host server and a
// one-host fleet the same commands: the host's state hash and journal
// must come back identical through both mounts of the per-host table.
func TestFleetOfOneServesTheSameHost(t *testing.T) {
	newSess := func() *snap.Session {
		sess, err := snap.NewSession(snap.Config{Preset: "two-socket", Options: core.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	single := httptest.NewServer(NewWithSession(newSess()).Handler())
	t.Cleanup(single.Close)
	f := fleet.New()
	if _, err := f.AddSession("box", newSess()); err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(NewFleetServer(f, fleet.ShardConfig{Epoch: 500 * simtime.Microsecond}).Handler())
	t.Cleanup(fs.Close)

	admit := `{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":8}]}`
	if code := postJSON(t, single.URL+"/api/v1/tenants", admit, nil); code != http.StatusCreated {
		t.Fatalf("host admit: %d", code)
	}
	if code := postJSON(t, fs.URL+"/api/v1/fleet/tenants", admit, nil); code != http.StatusCreated {
		t.Fatalf("fleet place: %d", code)
	}
	if code := postJSON(t, single.URL+"/api/v1/advance", `{"micros":1500}`, nil); code != http.StatusOK {
		t.Fatalf("host advance: %d", code)
	}
	if code := postJSON(t, fs.URL+"/api/v1/fleet/advance", `{"micros":1500}`, nil); code != http.StatusOK {
		t.Fatalf("fleet advance: %d", code)
	}

	hostBase, fleetBase := single.URL+"/api/v1", fs.URL+"/api/v1/fleet/hosts/box"
	var hh, fh struct {
		StateHash string `json:"state_hash"`
		Host      string `json:"host"`
	}
	if code := getJSON(t, hostBase+"/state/hash", &hh); code != http.StatusOK {
		t.Fatalf("host state hash: %d", code)
	}
	if code := getJSON(t, fleetBase+"/state/hash", &fh); code != http.StatusOK {
		t.Fatalf("fleet host state hash: %d", code)
	}
	if hh.StateHash == "" || hh.StateHash != fh.StateHash {
		t.Fatalf("state hash: host %q, fleet host %q", hh.StateHash, fh.StateHash)
	}
	if fh.Host != "box" {
		t.Fatalf("fleet host state hash names host %q, want box", fh.Host)
	}
	if hj, fj := getBody(t, hostBase+"/journal"), getBody(t, fleetBase+"/journal"); !bytes.Equal(hj, fj) {
		t.Fatalf("journals differ:\nhost  %s\nfleet %s", hj, fj)
	}
}

// getBody fetches url and returns its 200 body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
	}
	return body
}

func decodeEnvelope(t *testing.T, resp *http.Response) ErrorDetail {
	t.Helper()
	defer resp.Body.Close()
	var e ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error response is not the v1 envelope: %v", err)
	}
	if e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", e)
	}
	return e.Error
}

// TestErrorEnvelope checks that the typed envelope — and the right
// code — comes back on each error class.
func TestErrorEnvelope(t *testing.T) {
	_, ts := newServer(t)
	cases := []struct {
		method, path, body string
		status             int
		code               string
	}{
		{"POST", "/api/v1/advance", `{"micros":-5}`, http.StatusBadRequest, CodeBadRequest},
		{"GET", "/api/v1/tenants/ghost/verify", "", http.StatusNotFound, CodeNotFound},
		{"DELETE", "/api/v1/tenants/ghost", "", http.StatusNotFound, CodeNotFound},
		{"GET", "/api/v1/no-such-endpoint", "", http.StatusNotFound, CodeNotFound},
		{"GET", "/definitely-not-api", "", http.StatusNotFound, CodeNotFound},
		{"GET", "/api/topology", "", http.StatusNotFound, CodeNotFound}, // pre-v1 path
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
		}
		if detail := decodeEnvelope(t, resp); detail.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, detail.Code, tc.code)
		}
	}
}

// TestCanceledRequestGets499 drives the handler directly with an
// already-canceled context: the lock wrapper must answer with the 499
// envelope instead of running the handler.
func TestCanceledRequestGets499(t *testing.T) {
	s, _ := newServer(t)
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/api/v1/report", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	var e ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != CodeCanceled {
		t.Fatalf("body %q, want canceled envelope", rec.Body.String())
	}
}
