// Command qxmapd serves the qxmap circuit mapper over HTTP/JSON: a
// production-style frontend to the instance-scoped Mapper client API with
// synchronous, batch and asynchronous (job-handle) mapping.
//
// Usage:
//
//	qxmapd [-addr :8080] [-workers 0] [-cache 0] [-portfolio] [-ladder]
//	       [-timeout 60s] [-max-body 8388608] [-lower-bound on|off]
//	       [-sat-threads 4] [-cost-model paper|swap=<n>,h=<n>]
//	       [-calibration cal.json] [-store /var/lib/qxmapd] [-store-sync]
//	       [-tenant-rps 0] [-tenant-burst 10]
//	       [-tenant-quota 0] [-tenant-quota-window 1m]
//
// Endpoints:
//
//	GET    /healthz        — liveness plus worker/cache/job gauges
//	GET    /metrics        — Prometheus text exposition (cache tiers,
//	                         store layout, queue depth, SAT work totals)
//	GET    /v1/methods     — mapping methods in registry order
//	GET    /v1/archs       — structured architecture entries (qubits,
//	                         directionality, cost-model summary) plus the
//	                         legacy name list under "names"
//	GET    /v1/stats       — cache/store/scheduler statistics as JSON
//	POST   /v1/map         — map one QASM circuit; {"async": true} returns
//	                         202 with a job id instead of blocking
//	POST   /v1/batch       — map a batch with fail-soft per-job outcomes
//	GET    /v1/jobs        — list async jobs; ?state=&method=&arch=&tenant=
//	                         filter exact-match
//	GET    /v1/jobs/{id}   — poll an async job (state, timings, result)
//	DELETE /v1/jobs/{id}   — cancel and forget an async job
//
// Responses reuse the stable JSON encodings of the qxmap package
// (ResultJSON, BatchReportJSON) — identical to cmd/qxmap -json output.
// The per-result stats block includes the §4.1 shared-instance fan-out
// counters (subsets_pruned, core_family_refutations, orbit_hits) alongside
// the SAT descent counters.
//
// With -store, exact results are persisted to a crash-safe append-only
// store under the given directory and served across restarts: a request
// whose instance was solved by an earlier process returns cache_hit=true,
// cache_tier="disk" and zero SAT work. The store never changes answers —
// records are CRC-checked and schema-versioned, and anything unreadable is
// re-solved.
//
// -cost-model/-calibration set the server's default weighted cost model:
// every request is solved and priced under it, and the effective
// non-default model is echoed in each result's cost_model field.
//
// The mutating endpoints are rate-limited per tenant (the X-Tenant header;
// requests without one share the "default" tenant): -tenant-rps/-tenant-burst
// shape a token bucket, -tenant-quota/-tenant-quota-window bound total jobs
// per fixed window, and a batch costs one unit per job. Rejections are 429
// with a Retry-After header. Both mechanisms default to off.
//
// Synchronous work is bounded by -timeout; bodies beyond -max-body return
// 413; shutdown on SIGINT/SIGTERM is graceful: the listener drains before
// the mapper, its async jobs and the store are stopped.
//
// Under -ladder (the default) a deadline-starved exact solve degrades to a
// valid, verified plan instead of timing out: the SAT descent's best
// incumbent when one exists (degradation "anytime", with bound_gap
// bracketing the optimum), a heuristic plan otherwise (degradation
// "heuristic"). Only when even that fails does the request return 504 —
// a structured body with degradation "none" and a retry_after_hint
// mirroring the Retry-After header, like the limiter's 429s. Every
// response carries an X-Request-ID; a handler panic is contained to a 500
// naming that id, counted in qxmapd_panics_total, and the process keeps
// serving. Degraded mappings are counted per rung in
// qxmapd_degraded_total{mode=...}.
//
// -pprof <addr> serves the net/http/pprof profiling endpoints
// (/debug/pprof/...) on a separate listener, off by default; the API
// listener never serves them.
//
// Example:
//
//	qxmapd -addr :8080 &
//	curl -s localhost:8080/v1/map -d '{
//	  "qasm": "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncx q[0],q[1];",
//	  "arch": "ibmqx4", "method": "exact", "engine": "dp"
//	}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	qxmap "repro"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "mapper concurrency bound (0 = one per core)")
	cacheSize := flag.Int("cache", 0, "portfolio cache capacity in entries (0 = library default)")
	portfolio := flag.Bool("portfolio", false, "enable portfolio solving by default (requests may override)")
	ladder := flag.Bool("ladder", true, "degrade deadline-starved exact solves to valid anytime/heuristic plans (degradation field) instead of failing with 504")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request mapping deadline (0 = none); expiry returns 504")
	maxBody := flag.Int64("max-body", 8<<20, "maximum request body size in bytes")
	maxJobs := flag.Int("max-jobs", 1024, "async job records retained for polling (oldest finished evicted beyond this)")
	lowerBound := flag.String("lower-bound", "on", "admissible lower-bound seeding of the SAT descent: on or off")
	satThreads := flag.Int("sat-threads", 1, "clause-sharing SAT portfolio width per solve (capped at GOMAXPROCS); >1 trades witness determinism for parallel speed")
	costModel := flag.String("cost-model", "", "default cost model: paper (default 7/4) or swap=<n>,h=<n> for uniform rescaling")
	calibration := flag.String("calibration", "", "calibration JSON file with per-edge weights or error rates (overrides -cost-model)")
	storeDir := flag.String("store", "", "directory of the persistent result store (empty = in-memory caching only)")
	storeSync := flag.Bool("store-sync", false, "fsync every store write (durability over throughput)")
	tenantRPS := flag.Float64("tenant-rps", 0, "sustained requests/second per tenant on the mutating endpoints (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 10, "token-bucket burst per tenant (with -tenant-rps)")
	tenantQuota := flag.Int("tenant-quota", 0, "jobs per tenant per quota window (0 = unlimited); a batch costs one per job")
	tenantWindow := flag.Duration("tenant-quota-window", time.Minute, "fixed window for -tenant-quota")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate listen address (empty = off)")
	flag.Parse()

	noLowerBound := false
	switch *lowerBound {
	case "on":
	case "off":
		noLowerBound = true
	default:
		fmt.Fprintf(os.Stderr, "qxmapd: -lower-bound must be on or off, got %q\n", *lowerBound)
		os.Exit(1)
	}

	var cm *qxmap.CostModel
	var cmErr error
	switch {
	case *calibration != "":
		cm, cmErr = qxmap.LoadCalibration(*calibration)
	case *costModel != "":
		cm, cmErr = qxmap.ParseCostModel(*costModel)
	}
	if cmErr != nil {
		fmt.Fprintln(os.Stderr, "qxmapd:", cmErr)
		os.Exit(1)
	}

	s, err := newServer(serverConfig{
		workers:      *workers,
		cacheSize:    *cacheSize,
		portfolio:    *portfolio,
		ladder:       *ladder,
		costModel:    cm,
		reqTimeout:   *timeout,
		maxBody:      *maxBody,
		maxJobs:      *maxJobs,
		noLowerBound: noLowerBound,
		satThreads:   *satThreads,
		storeDir:     *storeDir,
		storeSync:    *storeSync,
		tenantRPS:    *tenantRPS,
		tenantBurst:  *tenantBurst,
		tenantQuota:  *tenantQuota,
		tenantWindow: *tenantWindow,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qxmapd:", err)
		os.Exit(1)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
	}

	var pprofSrv *http.Server
	pprofDone := make(chan struct{})
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qxmapd: -pprof:", err)
			os.Exit(1)
		}
		pprofSrv = &http.Server{Handler: pprofHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			defer close(pprofDone)
			log.Printf("qxmapd: pprof listening on %s", ln.Addr())
			if err := pprofSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("qxmapd: pprof: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("qxmapd listening on %s (workers=%d, timeout=%v)", *addr, s.mapper.Workers(), *timeout)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener failed outright (e.g. address in use).
		log.Fatalf("qxmapd: %v", err)
	case <-ctx.Done():
	}

	log.Print("qxmapd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("qxmapd: shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("qxmapd: serve: %v", err)
	}
	if pprofSrv != nil {
		// Profiles in flight are cut off: they are diagnostics, not work.
		if err := pprofSrv.Close(); err != nil {
			log.Printf("qxmapd: pprof close: %v", err)
		}
		<-pprofDone
	}
	if err := s.close(); err != nil {
		log.Printf("qxmapd: close: %v", err)
	}
}

// pprofHandler serves the net/http/pprof endpoints under /debug/pprof/. It
// has its own mux, so the profiling endpoints never reach the API listener
// (the package's init registers them only on http.DefaultServeMux, which
// qxmapd does not serve).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
