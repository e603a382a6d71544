// Command matchload is the serving benchmark of the multi-tenant
// layer: it synthesizes a fleet of tenants (N repositories × M
// personal schemas each), replays an open-loop request mix across all
// registry matcher specs against one match.Server, and reports
// throughput, latency percentiles, admission-control outcomes, and
// per-tenant scoring-cache hit rates. With -compare it additionally
// runs the same request list batched (one MatchBatch) and sequentially
// (N Service.Match calls) on fresh servers and prints the throughput
// ratio — the number future PRs regress against.
//
// Open loop means arrivals are scheduled by the offered rate alone:
// requests fire at their scheduled instant whether or not earlier ones
// finished, so queue growth and ErrOverloaded rejections are visible
// instead of being absorbed by back-pressure (closed-loop harnesses
// hide exactly the overload behaviour this layer exists to manage).
//
// With -churn-rate > 0 the replay additionally applies live schema
// updates (UpdateTenant: add/replace/remove, cycling round-robin over
// tenants) at that rate while queries are in flight, then reports
// incremental-update latency against a full tenant rebuild and the
// post-update cache-hit recovery per tenant — the live-repository
// scenario the versioned snapshot layer exists for. In-flight requests
// must never fail during churn; any non-overload error aborts the run.
// Combined with -remote, churn ships as full-repository PUTs over the
// admin surface (a live matchd needs -remote-admin-token; 'self'
// generates one), each derived from a local mirror of the tenant — the
// wire driver of the durable-store smoke test.
//
// Usage:
//
//	matchload [-tenants N] [-personals M] [-schemas S] [-requests R]
//	          [-rate RPS] [-workers W] [-queue Q] [-tenant-limit L]
//	          [-resident K] [-matchers specs] [-delta D] [-seed N]
//	          [-sizedist uniform|zipf] [-churn-rate UPS]
//	          [-compare] [-quiet] [-cpuprofile file] [-memprofile file]
//	matchload -tenants 8 -personals 4 -requests 400 -rate 200
//	matchload -requests 300 -rate 150 -churn-rate 10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/xmlschema"
	"repro/match"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "matchload:", err)
		os.Exit(1)
	}
}

// loadRequest is one scheduled request of the replay.
type loadRequest struct {
	tenant   string
	personal *xmlschema.Schema
	spec     string
}

// outcome is the recorded result of one replayed request.
type outcome struct {
	latency    time.Duration
	overloaded bool
	err        error
	// Inline span trace, present when the replay ran with -trace.
	trace *obs.TraceData
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("matchload", flag.ContinueOnError)
	tenants := fs.Int("tenants", 6, "number of synthetic tenants")
	personals := fs.Int("personals", 3, "personal schemas per tenant")
	schemas := fs.Int("schemas", 40, "repository schemas per tenant")
	requests := fs.Int("requests", 240, "total requests to replay")
	rate := fs.Float64("rate", 0, "offered request rate per second (0 = one burst)")
	workers := fs.Int("workers", 0, "server worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "server queue depth (0 = 4x workers)")
	tenantLimit := fs.Int("tenant-limit", 0, "per-tenant in-flight cap (0 = uncapped)")
	resident := fs.Int("resident", 0, "resident tenant bound (0 = all tenants)")
	specsFlag := fs.String("matchers", "exhaustive,parallel,beam:16,topk:0.035,clustered",
		"comma-separated matcher registry specs in the request mix")
	delta := fs.Float64("delta", 0.4, "matching threshold of every request")
	seed := fs.Uint64("seed", 1, "corpus and mix seed")
	sizedist := fs.String("sizedist", "uniform", "tenant schema size distribution: uniform or zipf (heavy-tailed)")
	churnRate := fs.Float64("churn-rate", 0, "live schema updates per second during the replay (0 = off)")
	compare := fs.Bool("compare", false, "also compare batched vs sequential serving throughput")
	remote := fs.String("remote", "", "replay over the wire protocol: 'self' starts an in-process matchd listener, anything else is a matchd address")
	remoteToken := fs.String("remote-token", "", "bearer token sent with every -remote request")
	remoteAdminToken := fs.String("remote-admin-token", "", "admin bearer token for -remote churn updates ('self' generates one when empty)")
	trace := fs.Bool("trace", false, "with -remote: request an inline span trace on every replayed request and report the per-stage latency decomposition")
	quiet := fs.Bool("quiet", false, "suppress the per-tenant table")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stopProfiles()
	if *remote != "" && *compare {
		return fmt.Errorf("-remote is incompatible with -compare")
	}
	if *remote != "" && *remote != "self" && *churnRate > 0 && *remoteAdminToken == "" {
		return fmt.Errorf("churning a live matchd needs -remote-admin-token")
	}
	if *trace && *remote == "" {
		return fmt.Errorf("-trace requires -remote (traces ride the wire protocol)")
	}
	if *requests < 1 {
		return fmt.Errorf("need at least 1 request")
	}
	specs, err := match.ParseList(*specsFlag)
	if err != nil {
		return err
	}
	cfg := synth.DefaultConfig(0)
	cfg.NumSchemas = *schemas
	cfg.SizeDist = *sizedist
	fleet, err := synth.GenerateTenants(*seed, *tenants, *personals, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fleet: %d tenants × %d personals, %d schemas each (%s sizes)\n",
		len(fleet), *personals, *schemas, *sizedist)

	// All tenants resident unless the caller deliberately studies
	// eviction churn: a bound below the fleet size would silently move
	// tenant re-construction inside the timed replay, so "warmup" and
	// the batched-vs-sequential comparison would no longer measure
	// serving.
	residentBound := *resident
	if residentBound < 1 {
		residentBound = len(fleet)
	} else if residentBound < len(fleet) {
		fmt.Fprintf(out, "note: resident bound %d < %d tenants — timings include eviction rebuilds\n",
			residentBound, len(fleet))
	}
	newServer := func() (*match.Server, error) {
		srv := match.NewServer(
			match.WithWorkers(*workers),
			match.WithQueueDepth(*queue),
			match.WithTenantConcurrency(*tenantLimit),
			match.WithResidentTenants(residentBound),
		)
		for _, tn := range fleet {
			if err := srv.AddTenant(tn.Name, tn.Repo()); err != nil {
				srv.Close()
				return nil, err
			}
		}
		return srv, nil
	}

	// The request mix: tenant, personal, and spec drawn deterministically
	// from the seed so two runs replay the identical traffic.
	rng := stats.NewRNG(*seed ^ 0x6c6f6164) // "load"
	mix := make([]loadRequest, *requests)
	for i := range mix {
		tn := fleet[rng.Intn(len(fleet))]
		mix[i] = loadRequest{
			tenant:   tn.Name,
			personal: stats.Pick(rng, tn.Personals()),
			spec:     specs[rng.Intn(len(specs))].String(),
		}
	}

	if *remote != "" {
		return runRemote(out, remoteRun{
			target:     *remote,
			token:      *remoteToken,
			adminToken: *remoteAdminToken,
			fleet:      fleet,
			mix:        mix,
			delta:      *delta,
			rate:       *rate,
			churnRate:  *churnRate,
			seed:       *seed,
			trace:      *trace,
			quiet:      *quiet,
			newServer:  newServer,
		})
	}

	srv, err := newServer()
	if err != nil {
		return err
	}
	defer srv.Close()

	// Warm every tenant once (index + session builds) so the replay
	// measures serving, not one-time construction. The warmup itself is
	// timed and reported — it is the cost a cold tenant pays.
	ctx := context.Background()
	warmStart := time.Now()
	if err := warmFleet(ctx, srv, fleet, *delta); err != nil {
		return err
	}
	fmt.Fprintf(out, "warmup: all tenants resident in %s\n\n", time.Since(warmStart).Round(time.Millisecond))

	// Live churn runs beside the replay: updates interleave with the
	// query traffic rather than waiting for a quiet window.
	var ch *churner
	if *churnRate > 0 {
		ch = newChurner(srv, fleet, *seed, *churnRate)
		go ch.run()
	}

	// Open-loop replay.
	outcomes, wall := replayMix(mix, *rate, func(lr loadRequest) outcome {
		start := time.Now()
		_, err := srv.Match(ctx, lr.tenant, match.Request{
			Personal: lr.personal,
			Delta:    *delta,
			Matcher:  lr.spec,
		})
		oc := outcome{latency: time.Since(start)}
		if err != nil {
			oc.err = err
			oc.overloaded = isOverloaded(err)
		}
		return oc
	})
	if ch != nil {
		if err := ch.halt(); err != nil {
			return err
		}
	}

	if err := reportReplay(out, outcomes, wall, *rate); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(out, "  server     %d workers, queue %d, %d resident tenants, %d groups accepted\n",
		st.Workers, st.QueueDepth, st.ResidentTenants, st.Accepted)

	if ch != nil {
		fmt.Fprintln(out)
		if err := ch.report(ctx, out, *delta); err != nil {
			return err
		}
	}

	if !*quiet {
		fmt.Fprintln(out)
		w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "tenant\tresident\tcacheEntries\tcacheHit%")
		for _, name := range srv.Tenants() {
			ts, err := srv.TenantStats(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%v\t%d\t%.1f\n",
				name, ts.Resident, ts.Cache.Entries, 100*ts.Cache.HitRate())
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}

	if *compare {
		fmt.Fprintln(out)
		if err := runCompare(ctx, out, newServer, fleet, mix, *delta); err != nil {
			return err
		}
	}
	return nil
}

// warmFleet makes every tenant resident: one batched clustered request
// per personal builds the cluster indexes and session cost tables.
func warmFleet(ctx context.Context, srv *match.Server, fleet []*synth.Tenant, delta float64) error {
	for _, tn := range fleet {
		var batch []match.BatchRequest
		for _, p := range tn.Personals() {
			batch = append(batch, match.BatchRequest{
				Tenant:  tn.Name,
				Request: match.Request{Personal: p, Delta: delta, Matcher: "clustered"},
			})
		}
		for i, r := range srv.MatchBatch(ctx, batch) {
			if r.Err != nil {
				return fmt.Errorf("warmup %s/%d: %w", tn.Name, i, r.Err)
			}
		}
	}
	return nil
}

// runCompare replays the identical request list twice on fresh
// pre-warmed servers: once as N sequential Match calls, once as one
// MatchBatch, and reports the throughput ratio. Both sides pay tenant
// construction (indexes, cost tables) before the clock starts, so the
// ratio isolates the serving-path win: group/session reuse, identical-
// request coalescing, and (on multi-core hosts) cross-group
// parallelism. Identical answer sets for the two modes are proven by
// TestServerBatchParityWithSequential; this measures only speed.
func runCompare(ctx context.Context, out io.Writer, newServer func() (*match.Server, error), fleet []*synth.Tenant, mix []loadRequest, delta float64) error {
	seq, err := newServer()
	if err != nil {
		return err
	}
	defer seq.Close()
	if err := warmFleet(ctx, seq, fleet, delta); err != nil {
		return err
	}
	seqStart := time.Now()
	for i, lr := range mix {
		if _, err := seq.Match(ctx, lr.tenant, match.Request{
			Personal: lr.personal, Delta: delta, Matcher: lr.spec,
		}); err != nil {
			return fmt.Errorf("sequential %d: %w", i, err)
		}
	}
	seqWall := time.Since(seqStart)

	bat, err := newServer()
	if err != nil {
		return err
	}
	defer bat.Close()
	if err := warmFleet(ctx, bat, fleet, delta); err != nil {
		return err
	}
	batch := make([]match.BatchRequest, len(mix))
	for i, lr := range mix {
		batch[i] = match.BatchRequest{
			Tenant:  lr.tenant,
			Request: match.Request{Personal: lr.personal, Delta: delta, Matcher: lr.spec},
		}
	}
	batStart := time.Now()
	for i, r := range bat.MatchBatch(ctx, batch) {
		if r.Err != nil {
			return fmt.Errorf("batched %d: %w", i, r.Err)
		}
	}
	batWall := time.Since(batStart)

	n := float64(len(mix))
	fmt.Fprintf(out, "compare (%d identical requests, pre-warmed servers):\n", len(mix))
	fmt.Fprintf(out, "  sequential %s (%.1f req/s)\n", seqWall.Round(time.Millisecond), n/seqWall.Seconds())
	fmt.Fprintf(out, "  batched    %s (%.1f req/s)\n", batWall.Round(time.Millisecond), n/batWall.Seconds())
	fmt.Fprintf(out, "  speedup    %.2fx\n", seqWall.Seconds()/batWall.Seconds())
	return nil
}

// replayMix fires the request mix open-loop (rate 0 = one burst) and
// records every outcome; do runs one request and must be safe for
// concurrent use. Both the in-process and the wire replays run through
// this one loop, so their timings differ only by the serving path.
func replayMix(mix []loadRequest, rate float64, do func(loadRequest) outcome) ([]outcome, time.Duration) {
	outcomes := make([]outcome, len(mix))
	var wg sync.WaitGroup
	var interarrival time.Duration
	if rate > 0 {
		interarrival = time.Duration(float64(time.Second) / rate)
	}
	start := time.Now()
	for i, lr := range mix {
		if interarrival > 0 {
			next := start.Add(time.Duration(i) * interarrival)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		wg.Add(1)
		go func(i int, lr loadRequest) {
			defer wg.Done()
			outcomes[i] = do(lr)
		}(i, lr)
	}
	wg.Wait()
	return outcomes, time.Since(start)
}

// reportReplay prints the replay summary and fails on any
// non-overload error among the outcomes.
func reportReplay(out io.Writer, outcomes []outcome, wall time.Duration, rate float64) error {
	completed, overloaded, latencies, err := tallyOutcomes(outcomes)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replay: %d requests in %s", len(outcomes), wall.Round(time.Millisecond))
	if rate > 0 {
		fmt.Fprintf(out, " (offered %.0f req/s)", rate)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "  completed  %d (%.1f req/s)\n", completed, float64(completed)/wall.Seconds())
	fmt.Fprintf(out, "  overloaded %d (typed ErrOverloaded rejections)\n", overloaded)
	if len(latencies) > 0 {
		fmt.Fprintf(out, "  latency    p50 %s  p90 %s  p99 %s  max %s\n",
			percentile(latencies, 0.50), percentile(latencies, 0.90),
			percentile(latencies, 0.99), percentile(latencies, 1.00))
	}
	return nil
}

// tallyOutcomes splits outcomes into completions, typed overload
// rejections, and hard failures (the first of which is returned).
func tallyOutcomes(outcomes []outcome) (completed, overloaded int, latencies []time.Duration, err error) {
	latencies = make([]time.Duration, 0, len(outcomes))
	var firstErr error
	for _, oc := range outcomes {
		switch {
		case oc.err == nil:
			completed++
			latencies = append(latencies, oc.latency)
		case oc.overloaded:
			overloaded++
		default:
			if firstErr == nil {
				firstErr = oc.err
			}
		}
	}
	if firstErr != nil {
		return 0, 0, nil, fmt.Errorf("replay hit a non-overload error: %w", firstErr)
	}
	return completed, overloaded, latencies, nil
}

// isOverloaded reports whether err is an admission-control rejection.
func isOverloaded(err error) bool {
	return errors.Is(err, match.ErrOverloaded)
}

// percentile returns the q-quantile of the latency sample (q in
// (0, 1]; 1 is the maximum). The slice is sorted in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(q*float64(len(ds))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(ds) {
		idx = len(ds) - 1
	}
	return ds[idx].Round(time.Microsecond)
}

// startProfiles starts a CPU profile and arranges a heap profile to be
// written by the returned stop function; either path may be empty. The
// heap profile runs GC first so it reflects live objects, not garbage.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}
