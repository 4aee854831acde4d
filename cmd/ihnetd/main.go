// Command ihnetd is the manageable intra-host network daemon: it runs
// the full manager (monitor + anomaly platform + arbiter) over a
// simulated host and serves the JSON control plane of internal/httpapi
// under /api/v1/, plus the observability surface: Prometheus metrics
// at /metrics, the event trace at /api/v1/trace/events, the live
// event stream (SSE) at /api/v1/events, liveness with per-subsystem
// status at /api/v1/healthz, and Go profiling at /debug/pprof/. A
// structured access log (one logfmt line per request, disable with
// -access-log=false) mints per-request correlation IDs that double as
// the root spans of journaled commands. In fleet mode the merged
// roll-up is at /api/v1/fleet/metrics/rollup and the fleet-wide
// host-tagged stream at /api/v1/fleet/events.
//
// Virtual time advances continuously by default (1 ms of virtual time
// per 10 ms of wall time); pass -autoadvance=0 to drive time only via
// POST /api/v1/advance for fully deterministic interaction.
//
// Pass -remedy to arm the closed-loop remediation controller: it
// subscribes to anomaly verdicts, plans against live fabric state, and
// executes repairs through the journaled command path, stepping once
// after every advance. Its status and MTTR percentiles are served at
// /api/v1/remedy/status and the rule table is live-editable via
// /api/v1/remedy/policy (seed it from a file with -remedy-policy). In
// fleet mode each host gets its own controller, stepped between epoch
// barriers, with the aggregate at /api/v1/fleet/remedy/status.
//
// Every mutating command is recorded through internal/snap, so the
// daemon's state can be checkpointed (POST /api/v1/snapshot), rolled
// back (POST /api/v1/restore), downloaded as a replayable command
// journal (GET /api/v1/journal), or resumed at startup from a snapshot
// file via -restore.
//
// Pass -store-dir to make that journal durable: every command is
// appended to an on-disk write-ahead log (crash-safe, checksummed;
// -store-sync picks fsync-per-command vs page-cache durability) and
// POST /api/v1/snapshot also lands a content-addressed incremental
// checkpoint in the store. A daemon restarted with the same -store-dir
// recovers the newest loadable checkpoint plus the journal tail and
// resumes byte-identical state — GET /api/v1/state/hash (and its fleet
// variants) is the fingerprint to compare. In fleet mode each host
// stores under hosts/<name>, all sharing one deduplicated chunk pool.
//
// Pass -auth-token-file to require a static bearer token
// (Authorization: Bearer <token> or X-API-Token) on every request;
// loopback clients stay exempt unless -auth-loopback=false. Denials
// are 401s in the typed envelope, counted in
// ihnet_http_auth_denied_total.
//
// Fleet mode: -hosts-dir boots one recording host per *.json host spec
// in the directory (or -synth-hosts=N boots N deterministic synthetic
// hosts) and serves the fleet control plane instead — placement,
// migration and rebalancing under /api/v1/fleet/, and each host's
// reads, event stream, checkpoint and journal through the single-host
// per-host routes mounted at /api/v1/fleet/hosts/{host}/ (e.g.
// /api/v1/fleet/hosts/box-a/report). The hosts advance on the sharded
// epoch engine:
// -fleet-shards independent shard groups (default one per 64 hosts),
// each with its own worker pool (-fleet-workers goroutines per shard)
// and inner epoch loop (barriers every -fleet-epoch of virtual time),
// synchronized only at coarse outer epochs — so 10k hosts advance
// without a global barrier per millisecond while staying bit-for-bit
// deterministic. Shard stats are at /api/v1/fleet/shards.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the auto-advance
// loop drains first (no advance is cut off mid-event), then the HTTP
// server finishes in-flight requests under a timeout.
//
// Usage:
//
//	ihnetd -addr :8080 -preset two-socket
//	curl localhost:8080/api/v1/report
//	curl localhost:8080/metrics
//	curl -X POST localhost:8080/api/v1/tenants -d '{"tenant":"kv","targets":[{"src":"nic0","dst":"memory:socket0","rate_gbps":80}]}'
//
//	ihnetd -addr :8080 -hosts-dir hosts/
//	curl localhost:8080/api/v1/fleet/hosts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/remedy"
	"repro/internal/simtime"
	"repro/internal/snap"
	"repro/internal/store"
	"repro/internal/topology"
)

func main() {
	if cli.MaybeVersion("ihnetd", os.Args[1:]) {
		return
	}
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	preset := flag.String("preset", "two-socket",
		"topology preset: "+strings.Join(topology.PresetNames(), ", "))
	seed := flag.Int64("seed", 1, "simulation seed")
	auto := flag.Duration("autoadvance", time.Millisecond,
		"virtual time advanced per 10ms of wall time (0 = manual only)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 5*time.Second,
		"grace period for in-flight requests on SIGINT/SIGTERM")
	restore := flag.String("restore", "",
		"snapshot file to resume from (its config overrides -preset/-seed)")
	hostsDir := flag.String("hosts-dir", "",
		"directory of *.json host specs: boot a fleet instead of a single host")
	synthHosts := flag.Int("synth-hosts", 0,
		"boot a fleet of N deterministic synthetic recording hosts (exclusive with -hosts-dir)")
	fleetWorkers := flag.Int("fleet-workers", 0,
		"fleet runner goroutines per shard (0 = GOMAXPROCS/shards)")
	fleetShards := flag.Int("fleet-shards", 0,
		"fleet shard groups, synchronized at outer epochs (0 = one per 64 hosts)")
	fleetEpoch := flag.Duration("fleet-epoch", time.Millisecond,
		"virtual-time barrier interval between inner fleet epochs")
	accessLog := flag.Bool("access-log", true,
		"log one structured line per request (request IDs are minted either way)")
	remedyOn := flag.Bool("remedy", false,
		"run the closed-loop remediation controller (stepped on every advance)")
	remedyPolicy := flag.String("remedy-policy", "",
		"policy file for -remedy (default: built-in rule table)")
	storeDir := flag.String("store-dir", "",
		"durable store directory: journal every command to disk and recover state across restarts")
	storeSync := flag.String("store-sync", string(store.SyncOS),
		`WAL durability for -store-dir: "always" (fsync per command, survives power loss) or "os" (page cache, survives process kills)`)
	authTokenFile := flag.String("auth-token-file", "",
		"file holding the static bearer token; when set, requests must present it (Authorization: Bearer or X-API-Token)")
	authLoopback := flag.Bool("auth-loopback", true,
		"exempt loopback (127.0.0.1/::1) requests from bearer-token auth")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	// Resolve store and auth configuration up front so a bad flag fails
	// fast, before any host state exists.
	syncPolicy, err := store.ParseSyncPolicy(*storeSync)
	if err != nil {
		log.Fatalf("ihnetd: -store-sync: %v", err)
	}
	storeOpts := store.Options{Sync: syncPolicy}
	authToken := ""
	if *authTokenFile != "" {
		if authToken, err = httpapi.LoadTokenFile(*authTokenFile); err != nil {
			log.Fatalf("ihnetd: -auth-token-file: %v", err)
		}
	}

	// Load the remediation policy up front so a bad file fails fast,
	// before any host state exists.
	pol := remedy.DefaultPolicy()
	if *remedyPolicy != "" {
		if !*remedyOn {
			log.Fatalf("ihnetd: -remedy-policy requires -remedy")
		}
		data, err := os.ReadFile(*remedyPolicy)
		if err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		if pol, err = remedy.ParsePolicy(data); err != nil {
			log.Fatalf("ihnetd: %s: %v", *remedyPolicy, err)
		}
	}

	// handler/advance/stopHosts abstract over the two modes so the
	// serving and shutdown machinery below is shared; authReg is where
	// the auth middleware lands its denial counters.
	var handler http.Handler
	var advance func(simtime.Duration) error
	var stopHosts func()
	var authReg *obs.Registry

	if *hostsDir != "" && *synthHosts > 0 {
		log.Fatalf("ihnetd: -hosts-dir and -synth-hosts are mutually exclusive")
	}
	if *hostsDir != "" || *synthHosts > 0 {
		var fl *fleet.Fleet
		var err error
		if *synthHosts > 0 {
			fl, err = fleet.Synth(fleet.SynthSpec{
				Hosts: *synthHosts, Preset: *preset, Seed: *seed,
				Record: true, Workload: true,
			})
		} else {
			opts := core.DefaultOptions()
			opts.Seed = *seed
			fl, err = fleet.LoadDir(*hostsDir, opts)
		}
		if err != nil {
			log.Fatalf("ihnetd: %v", err)
		}
		// Durable fleet store: every recording host gets its own
		// journal/snapshot store under hosts/<name>, all sharing one
		// content-addressed chunk pool. A host whose store already has
		// state is recovered from it — the in-memory host the fleet
		// loader just built is discarded — so a killed daemon restarts
		// exactly where the journal ends.
		var fstore *store.FleetStore
		if *storeDir != "" {
			if fstore, err = store.OpenFleet(*storeDir, storeOpts); err != nil {
				log.Fatalf("ihnetd: open fleet store: %v", err)
			}
			recovered, booted := 0, 0
			for _, h := range fl.Hosts() {
				if h.Sess == nil {
					continue
				}
				hs, err := fstore.Host(h.Name)
				if err != nil {
					log.Fatalf("ihnetd: host store %s: %v", h.Name, err)
				}
				if hs.HasState() {
					sess, rep, err := hs.Recover()
					if err != nil {
						log.Fatalf("ihnetd: recover host %s: %v", h.Name, err)
					}
					old := h.Mgr
					h.Sess = sess
					h.Mgr = sess.Manager()
					old.Stop()
					recovered++
					if rep.SnapshotsSkipped > 0 || rep.TruncatedBytes > 0 {
						log.Printf("ihnetd: host %s recovered with damage: %d checkpoints skipped, %d WAL bytes truncated",
							h.Name, rep.SnapshotsSkipped, rep.TruncatedBytes)
					}
				} else {
					if err := hs.Bootstrap(h.Sess); err != nil {
						log.Fatalf("ihnetd: bootstrap host %s: %v", h.Name, err)
					}
					booted++
				}
			}
			log.Printf("ihnetd: durable store %s (sync=%s): %d hosts recovered, %d bootstrapped",
				*storeDir, syncPolicy, recovered, booted)
		}
		fsrv := httpapi.NewFleetServer(fl, fleet.ShardConfig{
			Shards:  *fleetShards,
			Workers: *fleetWorkers,
			Epoch:   simtime.Duration(*fleetEpoch),
		})
		if fstore != nil {
			fsrv.SetFleetStore(fstore)
		}
		handler = fsrv.Handler()
		advance = fsrv.Advance
		authReg = fsrv.Registry()
		var fc *remedy.FleetController
		if *remedyOn {
			var err error
			if fc, err = remedy.NewFleet(fl, fsrv.Runner(), pol); err != nil {
				log.Fatalf("ihnetd: %v", err)
			}
			fsrv.SetRemedy(fc)
			log.Printf("ihnetd: remediation controllers armed on %d hosts", len(fl.Hosts()))
		}
		stopHosts = func() {
			if fc != nil {
				fc.Close()
			}
			for _, h := range fl.Hosts() {
				h.Mgr.Stop()
			}
			if fstore != nil {
				if err := fstore.Close(); err != nil {
					log.Printf("ihnetd: close fleet store: %v", err)
				}
			}
			log.Printf("ihnetd: stopped %d fleet hosts", len(fl.Hosts()))
		}
		source := *hostsDir
		if *synthHosts > 0 {
			source = fmt.Sprintf("synth(seed=%d)", *seed)
		}
		log.Printf("ihnetd: managing fleet of %d hosts from %s on %s (shards=%d, workers/shard=%d, epoch=%v, auto-advance %v/10ms)",
			len(fl.Hosts()), source, *addr, fsrv.Runner().Shards(), fsrv.Workers(), *fleetEpoch, *auto)
	} else {
		var st *store.Store
		if *storeDir != "" {
			if st, err = store.Open(*storeDir, storeOpts); err != nil {
				log.Fatalf("ihnetd: open store: %v", err)
			}
		}
		var sess *snap.Session
		switch {
		case *restore != "":
			f, err := os.Open(*restore)
			if err != nil {
				log.Fatalf("ihnetd: %v", err)
			}
			sess, err = snap.Restore(f)
			f.Close()
			if err != nil {
				log.Fatalf("ihnetd: restore %s: %v", *restore, err)
			}
			log.Printf("ihnetd: restored %s: %d journal entries replayed to t=%v",
				*restore, sess.Journal().Len(), sess.Now())
			// An explicit -restore wins over whatever the store holds:
			// rewrite the store to describe the restored session.
			if st != nil {
				if err := st.Reset(sess.Config(), sess.Journal().Entries); err != nil {
					log.Fatalf("ihnetd: rewrite store from %s: %v", *restore, err)
				}
				st.Resume(sess)
			}
		case st != nil && st.HasState():
			// The store's config.json pins preset and seed; -preset and
			// -seed are ignored on a recovery boot.
			var rep store.RecoveryReport
			if sess, rep, err = st.Recover(); err != nil {
				log.Fatalf("ihnetd: recover from %s: %v", *storeDir, err)
			}
			log.Printf("ihnetd: recovered from %s: checkpoint seq %d + %d replayed journal records to t=%v (hash %s)",
				*storeDir, rep.SnapshotSeq, rep.Replayed, sess.Now(), rep.StateHash)
			if rep.SnapshotsSkipped > 0 || rep.TruncatedBytes > 0 {
				log.Printf("ihnetd: recovery found damage: %d checkpoints skipped, %d WAL bytes truncated, %d orphan segments",
					rep.SnapshotsSkipped, rep.TruncatedBytes, rep.OrphanSegments)
			}
		default:
			if _, ok := topology.Presets[*preset]; !ok {
				fmt.Fprintf(os.Stderr, "ihnetd: unknown preset %q\n", *preset)
				os.Exit(1)
			}
			opts := core.DefaultOptions()
			opts.Seed = *seed
			var err error
			sess, err = snap.NewSession(snap.Config{Preset: *preset, Options: opts})
			if err != nil {
				log.Fatalf("ihnetd: %v", err)
			}
			if st != nil {
				if err := st.Bootstrap(sess); err != nil {
					log.Fatalf("ihnetd: bootstrap store: %v", err)
				}
				log.Printf("ihnetd: durable store bootstrapped at %s (sync=%s)", *storeDir, syncPolicy)
			}
		}
		srv := httpapi.NewWithSession(sess)
		if st != nil {
			srv.SetStore(st)
		}
		handler = srv.Handler()
		advance = srv.Advance
		authReg = sess.Manager().Obs().Registry
		if *remedyOn {
			// The server owns the controller from here: a POST
			// /api/v1/restore rebuilds it over the restored session.
			ctrl, err := remedy.New(sess.Manager(), remedy.SessionActuator{Sess: sess},
				remedy.Options{Policy: pol})
			if err != nil {
				log.Fatalf("ihnetd: %v", err)
			}
			srv.SetRemedy(ctrl)
			log.Printf("ihnetd: remediation controller armed (policy: %d rules)", len(pol.Rules))
		}
		stopHosts = func() {
			// Re-read the manager: a POST /api/v1/restore may have
			// swapped it.
			mgr := srv.Manager()
			mgr.Stop()
			if st != nil {
				if err := st.Close(); err != nil {
					log.Printf("ihnetd: close store: %v", err)
				}
			}
			log.Printf("ihnetd: stopped at virtual time %v after %d events",
				mgr.Engine().Now(), mgr.Engine().Processed)
		}
		log.Printf("ihnetd: managing %q host on %s (auto-advance %v/10ms; metrics at /metrics, pprof at /debug/pprof/)",
			*preset, *addr, *auto)
	}

	// The access log wraps the whole surface: every request gets a
	// correlation ID (minted or taken from X-Request-ID) that doubles
	// as the root span of the command it journals, so a log line joins
	// to journal entries and trace events on one key.
	logf := log.Printf
	if !*accessLog {
		logf = nil
	}
	// Auth sits inside the access log so denials are still logged (and
	// outside the mux so /metrics and pprof are covered too).
	if authToken != "" {
		handler = httpapi.Auth(handler, httpapi.AuthConfig{
			Token: authToken, TrustLoopback: *authLoopback, Registry: authReg,
		})
		log.Printf("ihnetd: bearer-token auth armed (loopback exempt: %v)", *authLoopback)
	}
	handler = httpapi.AccessLog(handler, logf)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Auto-advance loop: drains on shutdown so no advance is cut off
	// mid-event; advanceDone closes once the last advance returns. A
	// failed advance (a WAL append error, say) is logged once per run
	// of failures, not once per tick.
	advanceDone := make(chan struct{})
	if *auto > 0 {
		go func() {
			defer close(advanceDone)
			ticker := time.NewTicker(10 * time.Millisecond)
			defer ticker.Stop()
			failed := 0
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := advance(simtime.Duration(*auto)); err != nil {
						if failed == 0 {
							log.Printf("ihnetd: auto-advance: %v", err)
						}
						failed++
					} else if failed > 0 {
						log.Printf("ihnetd: auto-advance recovered after %d failed ticks", failed)
						failed = 0
					}
				}
			}
		}()
	} else {
		close(advanceDone)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		log.Fatalf("ihnetd: %v", err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	log.Printf("ihnetd: signal received, draining (timeout %v)", *shutdownTimeout)
	<-advanceDone
	sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("ihnetd: shutdown: %v", err)
	}
	stopHosts()
}
