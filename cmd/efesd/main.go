// Command efesd runs the EFES estimation daemon: an HTTP/JSON service
// over the estimation framework with an optional durable, crash-safe
// cache for profile statistics and results.
//
//	efesd -addr :8080 -cache-dir /var/lib/efesd \
//	      [-workers N] [-max-inflight N] [-max-upload-bytes N] [-request-timeout 30s] \
//	      [-module-timeout 10s] [-retries 1] [-backoff 50ms] [-fail-fast] \
//	      [-max-scenarios N] [-scenario-ttl 1h] \
//	      [-skill 1.0] [-criticality 1.0] [-config FILE]
//
// Endpoints (see internal/efesd): POST /v1/scenarios uploads a scenario
// (schema text + CSV tables + correspondences), POST /v1/estimate,
// /v1/profile, and /v1/match serve estimation, column profiling, and
// schema matching over uploaded scenarios; GET /healthz and /v1/status
// expose liveness and counters.
//
// With -cache-dir, profile statistics and non-degraded results are
// persisted content-addressed and crash-safe: after a restart — graceful
// or SIGKILL — repeated requests over the same data are served from disk
// byte-identically, without recomputation. SIGTERM/SIGINT drain
// gracefully: new requests get 503 while in-flight requests finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"efes/internal/efesd"
	"efes/internal/effort"
	"efes/internal/persist"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
	cacheDir := flag.String("cache-dir", "", "durable cache directory (empty = memory only)")
	cacheMax := flag.Int64("cache-max-bytes", 0, "cache size bound in bytes (0 = default, negative = unbounded)")
	workers := flag.Int("workers", 1, "concurrent module detectors and value-fit attribute pairs per request (below 1 = 1)")
	maxInFlight := flag.Int("max-inflight", efesd.DefaultMaxInFlight, "admitted concurrent requests; excess is shed with 429")
	maxUploadBytes := flag.Int64("max-upload-bytes", efesd.DefaultMaxUploadBytes, "largest scenario upload body in bytes; a larger one is refused with 413")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "default overall deadline per estimate request (0 = none)")
	moduleTimeout := flag.Duration("module-timeout", 0, "deadline per module detector attempt (0 = none)")
	retries := flag.Int("retries", 0, "retries per failed module detector")
	backoff := flag.Duration("backoff", 0, "wait before the first retry (doubling)")
	failFast := flag.Bool("fail-fast", false, "fail requests on module failure instead of degrading to the baseline")
	maxScenarios := flag.Int("max-scenarios", 0, "resident uploaded scenarios per server; beyond it the least recently used is evicted (0 = default, negative = unbounded)")
	scenarioTTL := flag.Duration("scenario-ttl", 0, "evict scenarios idle longer than this on next access (0 = never)")
	skill := flag.Float64("skill", 1, "practitioner skill factor (>1 slower)")
	criticality := flag.Float64("criticality", 1, "error criticality factor (>1 more careful)")
	mappingTool := flag.Bool("mapping-tool", false, "assume a mapping-generation tool (Example 3.8)")
	configFile := flag.String("config", "", "JSON effort configuration (overrides the Table-9 defaults)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight requests")
	flag.Parse()

	cfg := efesd.Config{
		Workers:        *workers,
		MaxInFlight:    *maxInFlight,
		MaxUploadBytes: *maxUploadBytes,
		RequestTimeout: *requestTimeout,
		MaxScenarios:   *maxScenarios,
		ScenarioTTL:    *scenarioTTL,
		// The daemon package reads no wall clock itself (nonewtime);
		// the binary injects the real one for TTL accounting.
		Now: time.Now,
		Resilience: efesd.Resilience{
			ModuleTimeout: *moduleTimeout,
			Retries:       *retries,
			Backoff:       *backoff,
			FailFast:      *failFast,
		},
	}

	ec := effort.DefaultConfig()
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			fatal(err)
		}
		ec, err = effort.LoadConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	ec.Settings.SkillFactor *= *skill
	ec.Settings.Criticality *= *criticality
	ec.Settings.MappingTool = ec.Settings.MappingTool || *mappingTool
	cfg.Effort = ec

	if *cacheDir != "" {
		cache, err := persist.Open(*cacheDir, persist.Options{MaxBytes: *cacheMax})
		if err != nil {
			fatal(fmt.Errorf("open cache: %w", err))
		}
		defer cache.Close()
		cfg.Cache = cache
		fmt.Fprintf(os.Stderr, "efesd: durable cache at %s\n", cache.Dir())
	}

	srv, err := efesd.New(cfg)
	if err != nil {
		fatal(err)
	}

	// Listen explicitly so that :0 resolves before the ready line is
	// printed — the smoke tests parse the line to find the port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("efesd: listening on %s\n", ln.Addr())

	httpSrv := newHTTPServer(srv, readHeaderTimeout, idleTimeout)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "efesd: %s, draining\n", sig)
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "efesd: drain: %v\n", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "efesd: serve: %v\n", err)
		}
	}
}

// Connection timeouts of the daemon's HTTP server. A client that never
// finishes its request headers, or a keep-alive connection left idle, is
// closed rather than held forever. There is no read or write timeout:
// uploads are large, and -request-timeout bounds the handlers.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the HTTP server that serves h, closing connections
// whose request headers take longer than readHeader to arrive or that
// stay idle between requests longer than idle.
func newHTTPServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "efesd: %v\n", err)
	os.Exit(1)
}
