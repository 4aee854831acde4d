package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
)

// The in-process stack mirrors cmd/ihnetd's boot with its defaults
// (preset two-socket, seed 1, store sync "os", access log on) except
// that auto-advance is off: virtual time moves only through the
// benchmark's advance requests, so every run does the same simulated
// work. The daemon's boot lives in package main and cannot be
// imported, hence the mirror.
const (
	daemonPreset = "two-socket"
	daemonSeed   = 1
)

var storeOpts = store.Options{Sync: store.SyncOS}

// discardLogf is the access log's sink: the log line is still
// formatted, as in the daemon, but written nowhere.
var discardLogf = log.New(io.Discard, "", log.LstdFlags|log.Lmicroseconds).Printf

// server is a loopback HTTP listener in front of a handler, plus the
// client that talks to it.
type server struct {
	http      *http.Server
	done      chan struct{}
	base      string
	client    *apiclient.Client
	transport *http.Transport
}

// serve wraps h the way ihnetd does (access log outermost; with a
// tracer, a timing wrapper just inside it) and starts serving on a
// fresh loopback port. It returns once GET /healthz answers 200.
func serve(h http.Handler, tr *tracer) (*server, error) {
	if tr != nil {
		h = tr.handler(h)
	}
	h = httpapi.AccessLog(h, discardLogf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		http:      &http.Server{Handler: h},
		done:      make(chan struct{}),
		base:      "http://" + ln.Addr().String(),
		transport: http.DefaultTransport.(*http.Transport).Clone(),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln)
	}()
	// apiclient uses http.DefaultClient; point it at this stack's
	// transport (one stack is live at a time).
	var rt http.RoundTripper = s.transport
	if tr != nil {
		rt = idTransport{base: s.transport}
	}
	http.DefaultClient.Transport = rt
	s.client = apiclient.New(s.base)
	if err := s.healthy(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *server) healthy() error {
	var h apiclient.Health
	var err error
	for i := 0; i < 100; i++ {
		if h, err = s.client.Health(context.Background()); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("healthz never answered 200 (status %q): %w", h.Status, err)
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.done
	s.transport.CloseIdleConnections()
}

// hostStack is the single-host daemon: session, durable store, server.
type hostStack struct {
	*server
	st   *store.Store
	sess *snap.Session
	srv  *httpapi.Server
}

// bootHost mirrors ihnetd's first boot with -store-dir: open the store,
// build a fresh session, bootstrap the store, serve.
func bootHost(dir string, tr *tracer) (*hostStack, error) {
	st, err := store.Open(dir, storeOpts)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Seed = daemonSeed
	sess, err := snap.NewSession(snap.Config{Preset: daemonPreset, Options: opts})
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Bootstrap(sess); err != nil {
		sess.Manager().Stop()
		st.Close()
		return nil, err
	}
	return serveHost(st, sess, tr)
}

// recoverHost mirrors ihnetd's restart with -store-dir: open the store,
// recover the session from it, serve.
func recoverHost(dir string, tr *tracer, parent string) (*hostStack, recovery, error) {
	end := tr.begin(parent, "store", "store.Open")
	st, err := store.Open(dir, storeOpts)
	end()
	if err != nil {
		return nil, recovery{}, err
	}
	end = tr.begin(parent, "store", "store.Recover")
	start := time.Now()
	sess, rep, err := st.Recover()
	rec := recovery{RecoveryReport: rep, recoverS: time.Since(start).Seconds()}
	end()
	if err != nil {
		st.Close()
		return nil, rec, err
	}
	hs, err := serveHost(st, sess, tr)
	return hs, rec, err
}

func serveHost(st *store.Store, sess *snap.Session, tr *tracer) (*hostStack, error) {
	hs := &hostStack{st: st, sess: sess, srv: httpapi.NewWithSession(sess)}
	hs.srv.SetStore(st)
	if tr != nil {
		// Time every durable append: the spy delegates to the store
		// and links its span to the request through Entry.Span.
		sess.SetSink(&sinkSpy{next: st, tr: tr})
	}
	s, err := serve(hs.srv.Handler(), tr)
	if err != nil {
		sess.Manager().Stop()
		st.Close()
		return nil, err
	}
	hs.server = s
	return hs, nil
}

func (hs *hostStack) close() {
	hs.server.close()
	hs.sess.Manager().Stop()
	hs.st.Close()
}

// fleetStack is the multi-host daemon of -synth-hosts N.
type fleetStack struct {
	*server
	fl   *fleet.Fleet
	fsrv *httpapi.FleetServer
}

// bootFleet mirrors ihnetd -synth-hosts n: recording synthetic hosts
// with the standard workload, default shards and workers, no store.
func bootFleet(n int, tr *tracer) (*fleetStack, error) {
	fl, err := fleet.Synth(fleet.SynthSpec{
		Hosts: n, Preset: daemonPreset, Seed: daemonSeed,
		Record: true, Workload: true,
	})
	if err != nil {
		return nil, err
	}
	fsrv := httpapi.NewFleetServer(fl, fleet.ShardConfig{Epoch: simtime.Millisecond})
	s, err := serve(fsrv.Handler(), tr)
	if err != nil {
		for _, h := range fl.Hosts() {
			h.Mgr.Stop()
		}
		return nil, err
	}
	return &fleetStack{server: s, fl: fl, fsrv: fsrv}, nil
}

func (fs *fleetStack) close() {
	fs.server.close()
	for _, h := range fs.fl.Hosts() {
		h.Mgr.Stop()
	}
}

// opKey carries a traced request's correlation state through the
// request context to idTransport.
type opKey struct{}

type opCtx struct {
	id    string
	bytes int64
}

// idTransport stamps X-Request-ID on traced requests and counts the
// response bytes the client reads.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	oc, _ := req.Context().Value(opKey{}).(*opCtx)
	if oc == nil {
		return t.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", oc.id)
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &oc.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

// sinkSpy is the snap.EntrySink installed after Bootstrap/Recover in
// traced passes: it times each durable append and delegates to the
// store.
type sinkSpy struct {
	next snap.EntrySink
	tr   *tracer
}

func (s *sinkSpy) AppendEntry(e snap.Entry) error {
	start := time.Now()
	err := s.next.AppendEntry(e)
	dur := time.Since(start)
	parent := ""
	if strings.HasPrefix(e.Span, "bench-") {
		parent = handlerSpanID(e.Span)
	}
	s.tr.add(span{Parent: parent, Layer: "store", Name: "store.append", start: start, dur: dur})
	return err
}

// watcher is one SSE subscriber on a stream endpoint, counting the
// events it receives until stopped.
type watcher struct {
	cancel context.CancelFunc
	done   chan error
	events atomic.Uint64
}

func watch(c *apiclient.Client, path string) *watcher {
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{cancel: cancel, done: make(chan error, 1)}
	go func() {
		w.done <- c.Stream(ctx, path, 0, func(apiclient.StreamEvent) error {
			w.events.Add(1)
			return nil
		})
	}()
	return w
}

func (w *watcher) stop() (uint64, error) {
	w.cancel()
	err := <-w.done
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return w.events.Load(), err
}
