// Package apiclient is the typed Go client for the ihnetd control
// plane. It speaks the v1 contract — every path under /api/v1/, the
// single error envelope {"error":{"code","message"}} — and is the one
// place client-side HTTP mechanics live: ihctl and tests build on it
// instead of hand-rolling requests.
//
// Paths are given relative to the version prefix ("/topology", not
// "/api/v1/topology"), so a client survives a future version bump by
// changing one constant. Every call takes a context; cancel it and the
// request aborts client-side while the server, which watches the same
// disconnect, answers any later writes with its 499 envelope.
package apiclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
)

// Client calls one ihnetd daemon.
type Client struct {
	api   string // root every path resolves below: ".../api/v1", or a fleet host's mount (Host)
	token string // bearer token sent on every request; "" sends none
	http  *http.Client
}

// New builds a client for the daemon at base ("http://host:port" or
// just "host:port").
func New(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{api: strings.TrimRight(base, "/") + "/api/v1", http: http.DefaultClient}
}

// Host returns a client whose calls address one host of a fleet
// daemon: paths resolve below /fleet/hosts/<name>, the fleet's mount
// of the per-host route table.
func (c *Client) Host(name string) *Client {
	h := *c
	h.api += "/fleet/hosts/" + url.PathEscape(name)
	return &h
}

// SetToken arms bearer-token auth: every subsequent request (streams
// included) carries "Authorization: Bearer <token>". An empty token
// clears it.
func (c *Client) SetToken(token string) { c.token = token }

// authorize stamps the bearer token on a request, if one is set.
func (c *Client) authorize(req *http.Request) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// Error is a non-2xx response decoded from the v1 envelope. A body
// that is not the envelope (a proxy's plain-text error, say) degrades
// to an Error carrying only the status.
type Error struct {
	Status  int    // HTTP status code
	Code    string // typed envelope code ("conflict", "not_found", ...)
	Message string
	// Details is the envelope's endpoint-specific structured context
	// (the batch endpoint's per-op results, say); nil when absent.
	Details json.RawMessage
}

func (e *Error) Error() string {
	switch {
	case e.Code != "" && e.Message != "":
		return fmt.Sprintf("%s: %s (http %d)", e.Code, e.Message, e.Status)
	case e.Message != "":
		return fmt.Sprintf("%s (http %d)", e.Message, e.Status)
	default:
		return fmt.Sprintf("http %d", e.Status)
	}
}

// Get fetches path and decodes the response into out (see do for out's
// accepted forms).
func (c *Client) Get(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodGet, path, nil, out)
}

// Post sends in as a JSON body (nil means empty) and decodes the
// response into out.
func (c *Client) Post(ctx context.Context, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.do(ctx, http.MethodPost, path, body, out)
}

// PostRaw sends a pre-encoded JSON body (a snapshot file, say) and
// decodes the response into out.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte, out any) error {
	return c.do(ctx, http.MethodPost, path, body, out)
}

// Delete issues a DELETE and decodes the response into out.
func (c *Client) Delete(ctx context.Context, path string, out any) error {
	return c.do(ctx, http.MethodDelete, path, nil, out)
}

// do runs one request against the versioned API. out may be nil
// (discard the body), *[]byte (the raw body — snapshots, journals), or
// any JSON-decodable value.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.api+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return decodeError(resp.StatusCode, data)
	}
	switch dst := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*dst = data
		return nil
	default:
		return json.Unmarshal(data, out)
	}
}

// decodeError turns an error body into *Error: the v1 envelope when
// the body carries one, status-only otherwise.
func decodeError(status int, data []byte) error {
	var env struct {
		Error struct {
			Code    string          `json:"code"`
			Message string          `json:"message"`
			Details json.RawMessage `json:"details"`
		} `json:"error"`
	}
	e := &Error{Status: status}
	if json.Unmarshal(data, &env) == nil && env.Error.Message != "" {
		e.Code, e.Message, e.Details = env.Error.Code, env.Error.Message, env.Error.Details
	}
	return e
}
