package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
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
