// Command matchd serves one match.Server over HTTP: the network front
// end of the multi-tenant matching layer. It loads a tenant corpus
// (one repository XML per tenant, as written by schemagen -out),
// listens on -addr — plain TCP or TLS when -tls-cert/-tls-key are
// given — and exposes the versioned wire protocol of
// internal/httpserve: per-tenant matching, batches, tenant stats, the
// admin register/update surface, /healthz, and the Prometheus
// /metrics endpoint.
//
// On SIGINT/SIGTERM the process drains instead of dying: the listener
// stops accepting, in-flight HTTP requests finish, the matching
// server completes every admitted group (Server.Drain), and only then
// does the process exit 0. If the drain misses -drain-timeout the
// remaining work is abandoned, connections are torn down, and the
// exit status is non-zero — a supervisor can tell a clean drain from
// a forced one.
//
// With -store-dir the daemon is durable: every tenant lives in one
// append-friendly log file (internal/store) that records a base
// snapshot plus one diff record per update. At boot the directory is
// recovered eagerly — each log replays to its exact pre-crash
// Version(), the cluster index is rehydrated when its persisted state
// passes the nearest-medoid parity self-check, and a bounded warm
// slice of the scoring memo is seeded after spot re-verification.
// Corpus tenants not present in the store are persisted on
// registration; a tenant present in both serves the store's (newer)
// state. Logs are compacted into a fresh base record periodically
// (-compact-after/-compact-interval) and once more at shutdown, after
// the drain, so the next boot replays nothing.
//
// Usage:
//
//	matchd [-corpus DIR] [-store-dir DIR] [-addr HOST:PORT] [-addr-file PATH]
//	       [-token T1,T2] [-admin-token A1] [-tls-cert F -tls-key F]
//	       [-workers N] [-queue N] [-resident N] [-tenant-limit N]
//	       [-drain-timeout D] [-max-body N] [-quiet]
//	       [-store-sync] [-compact-after N] [-compact-interval D] [-store-memo N]
//
//	schemagen -out /tmp/corpus -tenants 4 -personals 4
//	matchd -corpus /tmp/corpus -store-dir /var/lib/matchd -addr 127.0.0.1:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpserve"
	"repro/internal/obs"
	"repro/internal/xmlschema"
	"repro/match"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintln(os.Stderr, "matchd:", err)
		os.Exit(1)
	}
}

// splitTokens parses a comma-separated token flag.
func splitTokens(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// loadCorpus reads every *.xml repository in dir; the tenant name is
// the file's base name.
func loadCorpus(dir string) (map[string]*xmlschema.Repository, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*xmlschema.Repository)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		repo, err := xmlschema.ReadRepository(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out[strings.TrimSuffix(e.Name(), ".xml")] = repo
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no *.xml repositories in %s", dir)
	}
	return out, nil
}

// run is the testable daemon body: it returns once the listener has
// shut down, nil only after a clean drain.
func run(args []string, out io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("matchd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		addrFile     = fs.String("addr-file", "", "write the bound address to this file once listening")
		corpus       = fs.String("corpus", "", "directory of <tenant>.xml repository files (optional with -store-dir)")
		token        = fs.String("token", "", "comma-separated global serving bearer tokens (empty: open serving)")
		adminToken   = fs.String("admin-token", "", "comma-separated admin bearer tokens (empty: admin surface disabled)")
		tlsCert      = fs.String("tls-cert", "", "TLS certificate file (with -tls-key)")
		tlsKey       = fs.String("tls-key", "", "TLS key file (with -tls-cert)")
		workers      = fs.Int("workers", 0, "matching worker pool size (0: GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "admission queue depth (0: default)")
		resident     = fs.Int("resident", 0, "max resident tenant services (0: unbounded)")
		tenantLimit  = fs.Int("tenant-limit", 0, "per-tenant concurrency bound (0: unbounded)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "SIGTERM drain budget before forced shutdown")
		maxBody      = fs.Int64("max-body", 0, "request body size limit in bytes (0: default)")
		quiet        = fs.Bool("quiet", false, "suppress the per-request access log")
		logFormat    = fs.String("log-format", "text", "access log format: text or json")
		pprofOn      = fs.Bool("pprof", false, "serve /debug/pprof/ (admin bearer token required; needs -admin-token)")
		traceSample  = fs.Float64("trace-sample", 0, "fraction of requests to span-trace (0: forced traces only, 1: all)")
		traceSlow    = fs.Duration("trace-slow", 250*time.Millisecond, "tail-capture threshold: traced requests at least this slow are kept in the slow ring")

		storeDir        = fs.String("store-dir", "", "durable per-tenant store directory (empty: in-memory only)")
		storeSync       = fs.Bool("store-sync", false, "fsync the store after every append (survive power loss, not just crashes)")
		storeMemo       = fs.Int("store-memo", 4096, "warm scoring-memo entries persisted per compaction (0: none)")
		compactAfter    = fs.Int("compact-after", 64, "diff records per tenant log before the periodic compactor rewrites it")
		compactInterval = fs.Duration("compact-interval", time.Minute, "periodic compaction cadence (0: disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpus == "" && *storeDir == "" {
		return errors.New("one of -corpus or -store-dir is required")
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("invalid -log-format %q: want text or json", *logFormat)
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return errors.New("-tls-cert and -tls-key must be given together")
	}

	var repos map[string]*xmlschema.Repository
	if *corpus != "" {
		var err error
		if repos, err = loadCorpus(*corpus); err != nil {
			return err
		}
	}

	var sr *storeRuntime
	if *storeDir != "" {
		var err error
		if sr, err = openStoreRuntime(*storeDir, *storeSync, *storeMemo, *compactAfter); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}

	var sopts []match.ServerOption
	if *workers > 0 {
		sopts = append(sopts, match.WithWorkers(*workers))
	}
	if *queue > 0 {
		sopts = append(sopts, match.WithQueueDepth(*queue))
	}
	if *resident > 0 {
		sopts = append(sopts, match.WithResidentTenants(*resident))
	}
	if *tenantLimit > 0 {
		sopts = append(sopts, match.WithTenantConcurrency(*tenantLimit))
	}
	if sr != nil {
		// Tenants added after boot (AddTenant, admin registration) are
		// durable from registration.
		sopts = append(sopts, match.WithServerStore(func(tenant string) match.TenantStore {
			return sr.st.Tenant(tenant)
		}))
	}
	srv := match.NewServer(sopts...)
	defer srv.Close()

	// Recovery first: a tenant present in both the store and the corpus
	// serves the store's state — the log is ahead of (or equal to) the
	// registration-time corpus by construction.
	recovered := map[string]bool{}
	if sr != nil {
		t0 := time.Now()
		var err error
		if recovered, err = sr.recoverTenants(srv, out); err != nil {
			return err
		}
		if len(recovered) > 0 {
			warm := 0
			for _, ri := range sr.recovered {
				if ri.indexRestored {
					warm++
				}
			}
			fmt.Fprintf(out, "matchd: recovered %d tenants from %s (%d with warm index) in %s\n",
				len(recovered), *storeDir, warm, time.Since(t0).Round(time.Millisecond))
		}
	}
	names := make([]string, 0, len(repos))
	for name := range repos {
		if !recovered[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if err := srv.AddTenant(name, repos[name]); err != nil {
			return fmt.Errorf("tenant %s: %w", name, err)
		}
	}
	if len(srv.Tenants()) == 0 {
		return errors.New("no tenants (store empty and no corpus)")
	}

	cfg := httpserve.Config{MaxBodyBytes: *maxBody, EnablePprof: *pprofOn}
	if *token != "" || *adminToken != "" {
		cfg.Auth = &httpserve.AuthConfig{
			GlobalTokens: splitTokens(*token),
			AdminTokens:  splitTokens(*adminToken),
		}
	}
	if !*quiet {
		hopts := &slog.HandlerOptions{Level: slog.LevelInfo}
		if *logFormat == "json" {
			cfg.Log = slog.New(slog.NewJSONHandler(out, hopts))
		} else {
			cfg.Log = slog.New(slog.NewTextHandler(out, hopts))
		}
	}
	// The tracer always exists so forced traces (inbound trace ids and
	// the wire trace opt-in) record even at -trace-sample 0.
	cfg.Tracer = obs.New(obs.Config{SampleRate: *traceSample, Slow: *traceSlow})
	if sr != nil {
		cfg.StoreMetrics = sr.metricsProvider()
	}
	handler := httpserve.New(srv, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		// Write-then-rename so a watcher never reads a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			ln.Close()
			return err
		}
	}
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
	}
	fmt.Fprintf(out, "matchd: serving %d tenants on %s://%s\n", len(srv.Tenants()), scheme, bound)

	compactCtx, stopCompactor := context.WithCancel(context.Background())
	defer stopCompactor()
	if sr != nil && *compactInterval > 0 {
		go sr.compactor(compactCtx, srv, *compactInterval, out)
	}

	hs := &http.Server{Handler: handler}
	serveErr := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			serveErr <- hs.ServeTLS(ln, *tlsCert, *tlsKey)
		} else {
			serveErr <- hs.Serve(ln)
		}
	}()

	select {
	case err := <-serveErr:
		return fmt.Errorf("listener failed: %w", err)
	case sig := <-stop:
		fmt.Fprintf(out, "matchd: %v: draining (budget %s)\n", sig, *drainTimeout)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Two-stage drain: first the HTTP layer (stop accepting, finish
	// in-flight requests), then the matching server (complete every
	// admitted group). After Shutdown returns cleanly the second stage
	// is a formality — no connection can be waiting on a group.
	if err := hs.Shutdown(drainCtx); err != nil {
		hs.Close()
		srv.Close()
		return fmt.Errorf("drain incomplete after %s: %w", *drainTimeout, err)
	}
	// Capture the resident tenants before the drain closes the server:
	// no HTTP request can mutate a snapshot anymore (the listener is
	// down), so the captured services are final, and they stay usable
	// after Server.Close for the shutdown compaction below.
	stopCompactor()
	var targets []compactTarget
	if sr != nil {
		targets = residentTargets(srv)
	}
	if err := srv.Drain(drainCtx); err != nil {
		srv.Close()
		return fmt.Errorf("drain incomplete after %s: %w", *drainTimeout, err)
	}
	if sr != nil {
		// Shutdown compaction: each resident tenant's log becomes one
		// fresh base plus warm index/memo hints, so the next boot replays
		// zero diffs and serves warm.
		sr.shutdownCompact(targets, out)
	}
	st := srv.Stats()
	fmt.Fprintf(out, "matchd: drained cleanly (%d groups served, %d rejected overloaded)\n", st.Completed, st.Overloaded)
	return nil
}
