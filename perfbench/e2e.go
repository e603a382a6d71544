package main

// The end-to-end run: matchd as shipped, in its own process, loaded
// over the wire by the generator. Metrics are taken with tracing off.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
	"repro/internal/xmlschema"
)

// adminToken authorizes the generator's PUTs; serving stays open
// because no serving tokens are configured.
const adminToken = "perfbench-admin"

// daemonFlags returns matchd's flags for one boot: the defaults plus
// the corpus, an admin token for the PUTs and a durable store, with
// compaction set so each tenant log compacts several times a run.
func daemonFlags(p params, corpus, storeDir string) []string {
	return []string{"-corpus", corpus, "-admin-token", adminToken,
		"-store-dir", storeDir,
		"-compact-after", strconv.Itoa(p.CompactAfter),
		"-compact-interval", p.CompactInterval.String()}
}

// target is where the generator sends load: a matchd it started, or
// (in tests) any server speaking the wire protocol.
type target interface {
	addr() string
	// storeDir is the durable store to verify after stop ("" skips).
	storeDir() string
	// usage reads the server's CPU time and resident set.
	usage() (usage, error)
	stop() error
}

type daemonTarget struct {
	d     *daemon
	store string
}

func (t daemonTarget) addr() string          { return t.d.addr }
func (t daemonTarget) storeDir() string      { return t.store }
func (t daemonTarget) stop() error           { return t.d.stop(60 * time.Second) }
func (t daemonTarget) usage() (usage, error) { return readUsage(t.d.pid()) }

// warmOps is one request per tenant and planted personal, clustered so
// the first one per tenant also builds its cluster index; tenants are
// interleaved so concurrent connections warm different tenants.
func warmOps(w *workload) []*matchOp {
	var ops []*matchOp
	for pi := 0; pi < w.P.Personals; pi++ {
		for _, tn := range w.Fleet {
			ops = append(ops, &matchOp{Tenant: tn.Name, Personal: tn.Personals()[pi], Spec: "clustered"})
		}
	}
	return ops
}

// plantedOps is every planted personal under every spec, unlimited:
// the final query round.
func plantedOps(w *workload) []*matchOp {
	var ops []*matchOp
	for _, tn := range w.Fleet {
		for _, p := range tn.Personals() {
			for _, sp := range specs {
				ops = append(ops, &matchOp{Tenant: tn.Name, Personal: p, Spec: sp})
			}
		}
	}
	return ops
}

// runE2E measures workload w against matchd binary bin, booting it
// once for the run and once more after every round, under work.
func runE2E(ctx context.Context, w *workload, bin, work string) (*result, error) {
	corpus := filepath.Join(work, "corpus")
	if err := writeCorpus(corpus, w.Fleet); err != nil {
		return nil, err
	}
	ref, err := newReference(initialRepos(w), w.P.Delta)
	if err != nil {
		return nil, err
	}
	// Reference answers for the planted personals before anything is
	// timed (fresh personals' references follow the timed phases).
	for _, m := range plantedOps(w) {
		if _, err := ref.set(m.Tenant, m.Personal, m.Spec, false); err != nil {
			return nil, err
		}
	}

	boots := 0
	boot := func(ctx context.Context) (*daemon, string, time.Duration, []*matchOutcome, error) {
		dir := filepath.Join(work, fmt.Sprintf("boot%d", boots))
		boots++
		st := filepath.Join(dir, "store")
		t0 := time.Now()
		d, err := startDaemon(bin, daemonFlags(w.P, corpus, st), dir)
		if err != nil {
			return nil, "", 0, nil, err
		}
		ld := newLoader(d.addr, adminToken, w.P.Conns, w.P.Delta)
		outs := ld.saturate(ctx, warmOps(w)).Matches
		dt := time.Since(t0)
		ld.close()
		return d, st, dt, outs, nil
	}
	d, st, dt, warm, err := boot(ctx)
	if err != nil {
		return nil, err
	}
	// Ends the daemon on every path; after a stop it is a no-op.
	defer d.kill()
	probe := func(ctx context.Context) (time.Duration, []*matchOutcome, error) {
		d, _, dt, outs, err := boot(ctx)
		if err != nil {
			return 0, nil, err
		}
		d.kill()
		return dt, outs, nil
	}
	r, err := measure(ctx, w, daemonTarget{d: d, store: st}, ref, dt, warm, probe)
	if err != nil {
		return nil, err
	}
	r.linef("matchd flags: %s", strings.Join(daemonFlags(w.P, "<corpus>", "<store>"), " "))
	return r, nil
}

// setupFunc starts another server from the initial corpus, has it
// answer every set-up request, and stops it. It returns how long the
// start and the answers took, and the answers.
type setupFunc func(ctx context.Context) (time.Duration, []*matchOutcome, error)

// measure drives the timed phases against t, then checks everything.
// setup is how long t took to start and answer the set-up requests
// warm, which are checked with the rest.
//
// The run is Rounds rounds of three phases: reads one at a time over
// one connection, a closed-loop chunk of reads over Conns connections,
// and PUTs one at a time. After each round, probe starts and warms
// another server once more, so set-up is measured Rounds+1 times. Every
// metric thus samples the whole run, and a passing slowdown of the
// shared machine weighs on each alike.
func measure(ctx context.Context, w *workload, t target, ref *reference, setup time.Duration, warm []*matchOutcome, probe setupFunc) (*result, error) {
	r := &result{Workload: w.Name}
	ld := newLoader(t.addr(), adminToken, w.P.Conns, w.P.Delta)
	defer ld.close()

	rounds := w.P.Rounds
	seq, sat, upd := &phaseResult{}, &phaseResult{}, &phaseResult{}
	var (
		setups  = []time.Duration{setup}
		rates   []float64
		byRound [][]*matchOutcome // reads per round
		before  [][]*putOp        // PUTs sent before each round
		sent    []*putOp
		// readCPU and putCPU are matchd's CPU time in the read and the
		// PUT phases.
		readCPU, putCPU time.Duration
		// satCPU and genCPU are matchd's and the generator's CPU time in
		// each round's closed-loop phase.
		satCPU, genCPU []time.Duration
	)
	// rssSamples is matchd's resident set, read before and after every
	// timed phase.
	var rssSamples []float64
	use := func() time.Duration {
		u, err := t.usage()
		if err != nil {
			r.fail(fmt.Errorf("server usage: %w", err))
		}
		rssSamples = append(rssSamples, u.rss)
		return u.cpu
	}
	// The generator collects its garbage only between phases: a
	// collection during one would take CPU from matchd, which shares
	// the machine's few CPUs with it.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	host0 := readHostCPU()
	for k := 0; k < rounds; k++ {
		before = append(before, append([]*putOp(nil), sent...))
		runtime.GC()
		c0 := use()
		sr := ld.sequential(ctx, round(w.Seq, rounds, k), nil)
		runtime.GC()
		c1 := use()
		g0, _ := cpuTime(os.Getpid())
		pr := ld.saturate(ctx, round(w.Sat, rounds, k))
		g1, _ := cpuTime(os.Getpid())
		runtime.GC()
		c2 := use()
		ur := ld.sequential(ctx, nil, round(w.Updates, rounds, k))
		c3 := use()
		readCPU, putCPU = readCPU+c2-c0, putCPU+c3-c2
		satCPU, genCPU = append(satCPU, c2-c1), append(genCPU, g1-g0)
		rates = append(rates, pr.rate())
		byRound = append(byRound, append(append([]*matchOutcome(nil), sr.Matches...), pr.Matches...))
		for _, o := range ur.Puts {
			sent = append(sent, o.Op)
		}
		seq.add(sr)
		sat.add(pr)
		upd.add(ur)
		dt, outs, err := probe(ctx)
		if err != nil {
			return nil, err
		}
		setups, warm = append(setups, dt), append(warm, outs...)
	}
	debug.SetGCPercent(gcPercent)
	host1 := readHostCPU()
	end, err := t.usage()
	if err != nil {
		return nil, err
	}

	// Final state: a query round over every planted personal and spec,
	// and the served versions, before the drain.
	final := ld.sequential(ctx, plantedOps(w), nil).Matches
	versions := map[string]uint64{}
	for _, tn := range w.Fleet {
		ts, err := ld.clients[0].TenantStats(ctx, tn.Name)
		if err != nil {
			r.fail(fmt.Errorf("tenant stats %s: %w", tn.Name, err))
			continue
		}
		versions[tn.Name] = ts.Version
	}
	if err := t.stop(); err != nil {
		r.fail(err)
	}

	// Tally and check, outside every timed interval.
	timed := time.Now()
	r.Attempted += len(warm) + len(seq.Matches) + len(sat.Matches) + len(upd.Puts) + len(final)
	all := append(append([]*matchOutcome(nil), warm...), seq.Matches...)
	all = append(all, sat.Matches...)
	for _, o := range append(all, final...) {
		if o.Err != nil {
			r.fail(fmt.Errorf("%s %s/%s: %w", o.Op.Spec, o.Op.Tenant, o.Op.Personal.Name, o.Err))
		}
	}
	for _, o := range upd.Puts {
		if o.Err != nil {
			r.fail(fmt.Errorf("PUT %d %s: %w", o.Op.Seq, o.Op.Tenant, o.Err))
		}
	}
	for _, err := range checkAll(ref, warm, w.P.Conns) {
		r.fail(err)
	}
	// Each round's reads are checked against the state its PUTs left.
	for k := 0; k < rounds; k++ {
		rk := ref
		if len(before[k]) > 0 {
			if rk, err = stateReference(w, before[k]); err != nil {
				return nil, err
			}
		}
		for _, err := range checkAll(rk, byRound[k], w.P.Conns) {
			r.fail(err)
		}
	}
	finalRef, err := stateReference(w, sent)
	if err != nil {
		return nil, err
	}
	for _, err := range checkAll(finalRef, final, w.P.Conns) {
		r.fail(err)
	}
	repos, counts := w.expectedState(sent)
	for _, err := range checkState(w, repos, counts, versions, t.storeDir()) {
		r.fail(err)
	}
	r.linef("checks: %s after the timed phases", time.Since(timed).Round(time.Millisecond))

	// Metrics. The tails are printed, not bounded: on a shared host
	// they spread across runs by more than any bound the benchmark may
	// set (see tail).
	lat := latencies(seq.Matches)
	r.add("setup_s", "s", median(setups).Seconds(), len(setups), "median matchd exec → every tenant answered each planted personal")
	r.add("match_p50_ms", "ms", ms(quantile(lat, 0.50)), len(lat), "one read at a time on one connection, sent → decoded")
	r.add("match_sat_rps", "1/s", medianFloat(append([]float64(nil), rates...)), len(sat.Matches),
		fmt.Sprintf("closed loop, %d connections, median of %d rounds", w.P.Conns, rounds))
	ul := make([]time.Duration, len(upd.Puts))
	for i, o := range upd.Puts {
		ul[i] = o.Done.Sub(o.Sent)
	}
	r.add("update_p50_ms", "ms", ms(quantile(ul, 0.50)), len(ul), "full-repository PUT round trip, one at a time")
	reads := len(seq.Matches) + len(sat.Matches)
	r.add("server_cpu_ms_per_op", "ms", ms(readCPU)/float64(reads), reads, "matchd utime+stime per read over the read phases")
	r.add("server_rss_mean_mb", "MB", meanFloat(rssSamples), len(rssSamples), "mean matchd VmRSS, read before and after every timed phase")
	r.linef("tails (not bounded): match %s; update %s; matchd peak RSS (VmHWM) %.1f MB", tail(lat), tail(ul), end.peak)
	r.linef("host: %.1f%% of the machine's CPU time was stolen by the hypervisor during the rounds", 100*host1.stealShare(host0))
	r.linef("%d rounds: %d reads one at a time, %d closed loop at %s/s per round, %d PUTs",
		rounds, len(seq.Matches), len(sat.Matches), fmtFloats(rates), len(upd.Puts))
	genRSS, err := peakRSS(os.Getpid())
	if err != nil {
		return nil, err
	}
	r.linef("closed loop CPU per round: matchd %s ms, generator %s ms; generator peak RSS %.0f MB",
		fmtDurations(satCPU), fmtDurations(genCPU), genRSS)
	if gen, srv := sum(genCPU), sum(satCPU); gen > srv/2 {
		r.Invalid = fmt.Sprintf("the generator, not matchd, was the bottleneck: it used %s of CPU in the closed loop against matchd's %s", gen, srv)
	}
	if total := readCPU + putCPU; total > 0 {
		r.linef("matchd CPU: %.0f ms in the timed phases, of which the %d PUTs %.0f ms (%.0f%%), left out of server_cpu_ms_per_op",
			ms(total), len(upd.Puts), ms(putCPU), 100*float64(putCPU)/float64(total))
	}
	empty := 0
	for _, o := range all {
		if o.Err == nil && o.Total == 0 {
			empty++
		}
	}
	r.linef("answers: %d of %d responses had empty answer sets", empty, len(all))
	return r, nil
}

// stateReference returns a reference over the state the sent PUTs
// left. matchd maintains the cluster index across updates
// incrementally (Index.Apply), which may cluster differently from a
// fresh build, so clustered answers are held to the guarantee alone.
func stateReference(w *workload, sent []*putOp) (*reference, error) {
	repos, _ := w.expectedState(sent)
	ref, err := newReference(repos, w.P.Delta)
	if err != nil {
		return nil, err
	}
	ref.clusteredSubsetOnly = true
	return ref, nil
}

// latencies returns each request's latency; a failed request misses
// every latency limit.
func latencies(outs []*matchOutcome) []time.Duration {
	lat := make([]time.Duration, len(outs))
	for i, o := range outs {
		lat[i] = o.Done.Sub(o.Sent)
		if o.Err != nil {
			lat[i] = time.Duration(1<<62 - 1)
		}
	}
	return lat
}

// tail renders the p90 and p99 of ds with the sample count.
func tail(ds []time.Duration) string {
	return fmt.Sprintf("p90 %.3f ms, p99 %.3f ms (n=%d)", ms(quantile(ds, 0.90)), ms(quantile(ds, 0.99)), len(ds))
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// fmtDurations renders durations in whole milliseconds, in order.
func fmtDurations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.0f", ms(d))
	}
	return strings.Join(parts, " ")
}

// fmtFloats renders values with one decimal, in order.
func fmtFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.1f", v)
	}
	return strings.Join(parts, " ")
}

// checkState verifies the state after the run: each tenant's served
// version must have advanced by at least one per PUT and, with a
// store, equal its durable version, and the durable schema set must
// equal the generator's mirror schema for schema.
func checkState(w *workload, repos map[string]*xmlschema.Repository, puts map[string]int, versions map[string]uint64, dir string) []error {
	var errs []error
	for _, tn := range w.Fleet {
		if v, want := versions[tn.Name], uint64(1+puts[tn.Name]); v < want {
			errs = append(errs, fmt.Errorf("%s: served version %d after %d PUTs", tn.Name, v, puts[tn.Name]))
		}
	}
	if dir == "" {
		return errs
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return append(errs, fmt.Errorf("open store: %w", err))
	}
	for _, tn := range w.Fleet {
		ts, err := st.Tenant(tn.Name).Load()
		if err != nil {
			errs = append(errs, fmt.Errorf("load %s: %w", tn.Name, err))
			continue
		}
		if v := versions[tn.Name]; v != ts.Version() {
			errs = append(errs, fmt.Errorf("%s: served version %d, durable version %d", tn.Name, v, ts.Version()))
		}
		if err := sameRepo(ts.Snapshot.Repository(), repos[tn.Name]); err != nil {
			errs = append(errs, fmt.Errorf("%s: durable state differs from the mirror: %w", tn.Name, err))
		}
	}
	return errs
}

// sameRepo compares two repositories schema by schema, in order.
func sameRepo(got, want *xmlschema.Repository) error {
	g, wn := got.Schemas(), want.Schemas()
	if len(g) != len(wn) {
		return fmt.Errorf("%d schemas, want %d", len(g), len(wn))
	}
	for i := range g {
		if g[i].Name != wn[i].Name || g[i].String() != wn[i].String() {
			return fmt.Errorf("schema %d is %q, want %q", i, g[i].Name, wn[i].Name)
		}
	}
	return nil
}

// removeAll deletes a run's scratch directory.
func removeAll(dir string) {
	_ = os.RemoveAll(dir) // best effort: leftovers sit under the ignored build directory
}
