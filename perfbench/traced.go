package main

// The traced run. It replays the workload in process, one operation
// at a time in request order, by calling each layer's public
// functions itself and recording a span around every call. Admin PUTs
// go through httpserve's own handler instead, and the layers inside
// it are timed by re-running them on the same inputs. The spans stay
// in memory and are written out as JSON lines when the run ends.
// The same replay runs once untraced on an identically prepared
// server; the difference between the two is the tracing overhead.
// internal/obs stays at sample rate 0 throughout, as in matchd.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/httpserve"
	"repro/internal/matchers/clustered"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/xmlschema"
	"repro/match"
)

// span is one recorded interval. Spans of one operation share Req;
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

// open starts a span now and returns its id.
func (t *tracer) open(req, parent int, name string) int {
	if t == nil {
		return -1
	}
	return t.record(req, parent, name, time.Now(), time.Time{})
}

// close ends span id now.
func (t *tracer) close(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// place sets the bounds of span id, for a span opened before its
// bounds were known.
func (t *tracer) place(id int, start, end time.Time) {
	if t != nil {
		t.spans[id].Start, t.spans[id].End = int64(start.Sub(t.t0)), int64(end.Sub(t.t0))
	}
}

// record adds a span with known bounds (a zero end leaves it open).
func (t *tracer) record(req, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Req: req, ID: len(t.spans), Parent: parent, Start: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the time its children
// cover, summed per span name (children never overlap: the replay is
// sequential).
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// readStat is what the traced replay learned about one read.
type readStat struct {
	op            *matchOp
	wall          time.Duration
	decode        time.Duration
	session       time.Duration
	sessionMiss   bool
	memoHits      int64
	memoMisses    int64
	queueWait     time.Duration
	search        time.Duration
	candidates    int
	yielded       int
	answers       int
	encode        time.Duration
	responseBytes int
	overloaded    bool
	err           error
	out           *matchOutcome
}

// updateStat is what the traced replay learned about one PUT.
type updateStat struct {
	repoDecode, update, diff, apply, compact time.Duration
	appendDur                                time.Duration
	compacted                                bool
	bytes                                    int64
	err                                      error
}

// replay is one in-process server plus the replay state around it.
type replay struct {
	w   *workload
	srv *match.Server
	// handler is httpserve's handler over srv, configured as matchd
	// configures it; admin PUTs go through it.
	handler http.Handler
	// st backs every tenant, as matchd -store-dir does.
	st    *store.Store
	tr    *tracer
	delta float64
	// twins are cluster indexes equal to the served ones but scoring
	// through a memo of their own (traced pass only): the served
	// index's Apply fills the server's shared memo, so re-running it
	// there would time a warm Apply. Each update advances its tenant's
	// twin by the same diff, timed.
	twins map[string]*clustered.Index

	// interned maps the generator's personals to their decoded schema,
	// as the wire interner would (structurally equal personals are the
	// same generator object here). Bounded like the interner.
	interned map[*xmlschema.Schema]*xmlschema.Schema
	lastProb map[*xmlschema.Schema]*matching.Problem

	// appendSpan parents the store append span of the update in flight.
	appendSpan int
	appendReq  int
	appendDur  time.Duration
}

// internSize mirrors httpserve's default interner bound.
const internSize = 256

// timedStore wraps a tenant log so the replay can time AppendDiff.
type timedStore struct {
	x *replay
	t *store.Tenant
}

func (s timedStore) SaveBase(version uint64, repo *xmlschema.Repository) error {
	return s.t.SaveBase(version, repo)
}

func (s timedStore) AppendDiff(next *xmlschema.Snapshot, diff xmlschema.Diff) error {
	start := time.Now()
	err := s.t.AppendDiff(next, diff)
	end := time.Now()
	s.x.appendDur = end.Sub(start)
	s.x.tr.record(s.x.appendReq, s.x.appendSpan, "store.append", start, end)
	return err
}

// newReplay builds a server configured as matchd -store-dir configures
// its own: default server options, a durable store under dir, and
// tenants registered from the corpus XML.
func newReplay(w *workload, corpus map[string][]byte, dir string, tr *tracer) (*replay, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	x := &replay{w: w, st: st, tr: tr, delta: w.P.Delta, twins: map[string]*clustered.Index{},
		interned: map[*xmlschema.Schema]*xmlschema.Schema{}, lastProb: map[*xmlschema.Schema]*matching.Problem{}}
	x.srv = match.NewServer(match.WithServerStore(func(tenant string) match.TenantStore {
		return timedStore{x: x, t: st.Tenant(tenant)}
	}))
	x.handler = httpserve.New(x.srv, handlerConfig())
	for _, tn := range w.Fleet {
		repo, err := xmlschema.ReadRepository(bytes.NewReader(corpus[tn.Name]))
		if err == nil {
			err = x.srv.AddTenant(tn.Name, repo)
		}
		if err != nil {
			x.srv.Close()
			return nil, err
		}
	}
	return x, nil
}

// handlerConfig is httpserve's configuration as matchd builds it from
// the flags the end-to-end run passes: an admin token, the default
// limits, an access log (discarded here) and a tracer at sample rate 0.
func handlerConfig() httpserve.Config {
	return httpserve.Config{
		Auth:   &httpserve.AuthConfig{AdminTokens: []string{adminToken}},
		Log:    slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
		Tracer: obs.New(obs.Config{SampleRate: 0, Slow: 250 * time.Millisecond}),
	}
}

// warm builds every tenant's service and cluster index and one session
// per planted personal, as matchd's set-up requests do; it returns the
// index build time per tenant.
func (x *replay) warm(ctx context.Context) ([]time.Duration, []*readStat, error) {
	var builds []time.Duration
	for _, tn := range x.w.Fleet {
		svc, err := x.srv.Service(tn.Name)
		if err != nil {
			return nil, nil, err
		}
		id := x.tr.open(-1, -1, "cluster.index_build")
		start := time.Now()
		ix, err := svc.Index()
		if err != nil {
			return nil, nil, err
		}
		builds = append(builds, time.Since(start))
		x.tr.close(id)
		if x.tr == nil {
			continue
		}
		twin, err := clustered.BuildIndex(svc.Repository(), clustered.IndexConfig{Scorer: engine.New(nil)})
		if err != nil {
			return nil, nil, err
		}
		if !reflect.DeepEqual(twin.State(), ix.State()) {
			return nil, nil, fmt.Errorf("%s: the twin cluster index differs from the served one", tn.Name)
		}
		x.twins[tn.Name] = twin
	}
	var reads []*readStat
	for i, m := range warmOps(x.w) {
		body, err := json.Marshal(m.request(x.delta))
		if err != nil {
			return nil, nil, err
		}
		rs := x.read(ctx, -2-i, m, body)
		if rs.err != nil {
			return nil, nil, rs.err
		}
		reads = append(reads, rs)
	}
	return builds, reads, nil
}

// memoStats returns the tenant scorer's cumulative cache traffic.
func memoStats(svc *match.Service) engine.Stats {
	st, _ := svc.CacheStats()
	return st
}

// read replays one match request through the layers.
func (x *replay) read(ctx context.Context, req int, m *matchOp, body []byte) *readStat {
	rs := &readStat{op: m}
	t0 := time.Now()
	root := x.tr.record(req, -1, "request", t0, time.Time{})
	defer func() {
		rs.wall = time.Since(t0)
		x.tr.close(root)
	}()

	// httpserve: wire decode, and the schema build on an interner miss.
	id := x.tr.open(req, root, "httpserve.decode")
	start := time.Now()
	wreq, err := httpserve.DecodeMatchRequest(bytes.NewReader(body), 0)
	if err != nil {
		rs.err = err
		return rs
	}
	personal, ok := x.interned[m.Personal]
	if !ok {
		if personal, err = wreq.Personal.Build(); err != nil {
			rs.err = err
			return rs
		}
		if len(x.interned) < internSize {
			x.interned[m.Personal] = personal
		}
	}
	rs.decode = time.Since(start)
	x.tr.close(id)

	// match.Service: the session (cost tables) for this personal.
	svc, err := x.srv.Service(m.Tenant)
	if err != nil {
		rs.err = err
		return rs
	}
	before := memoStats(svc)
	id = x.tr.open(req, root, "match.session")
	start = time.Now()
	prob, err := svc.Problem(personal)
	rs.session = time.Since(start)
	x.tr.close(id)
	if err != nil {
		rs.err = err
		return rs
	}
	d := memoStats(svc).Sub(before)
	rs.memoHits, rs.memoMisses = d.Hits, d.Misses
	rs.sessionMiss = x.lastProb[personal] != prob
	x.lastProb[personal] = prob

	// match.Server: admission, queue, and the search on a worker. The
	// server's own stage walls place the child spans.
	id = x.tr.open(req, root, "match.server")
	start = time.Now()
	res, err := x.srv.Match(ctx, m.Tenant, match.Request{Personal: personal, Delta: wreq.Delta, Matcher: wreq.Matcher, Limit: wreq.Limit})
	x.tr.close(id)
	if err != nil {
		rs.err, rs.overloaded = err, errors.Is(err, match.ErrOverloaded)
		return rs
	}
	st := res.Stats
	qEnd := start.Add(st.QueueWait)
	x.tr.record(req, id, "match.queue", start, qEnd)
	sEnd := qEnd.Add(st.SessionBuild)
	x.tr.record(req, id, "match.lookup", qEnd, sEnd)
	x.tr.record(req, id, "search."+familyOf(m.Spec), sEnd, sEnd.Add(st.Wall))
	rs.queueWait, rs.search = st.QueueWait, st.Wall
	rs.candidates, rs.yielded, rs.answers = st.Search.Candidates, st.Search.Yielded, st.Answers

	// httpserve: the response body.
	id = x.tr.open(req, root, "httpserve.encode")
	start = time.Now()
	resp := &httpserve.MatchResponse{Answers: make([]httpserve.Answer, len(res.Answers)), Stats: wireStats(st)}
	for i, a := range res.Answers {
		resp.Answers[i] = httpserve.Answer{Schema: a.Mapping.Schema, Targets: append([]int(nil), a.Mapping.Targets...), Score: a.Score}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		rs.err = err
		return rs
	}
	rs.encode = time.Since(start)
	x.tr.close(id)
	rs.responseBytes = buf.Len()
	rs.out = &matchOutcome{Op: m, Answers: resp.Answers, Total: st.Answers}
	return rs
}

// wireStats mirrors the handler's conversion of match.Stats.
func wireStats(st match.Stats) httpserve.Stats {
	return httpserve.Stats{
		Matcher:        st.Matcher,
		WallNs:         st.Wall.Nanoseconds(),
		Search:         httpserve.SearchStats(st.Search),
		Cache:          httpserve.CacheStats{Hits: st.Cache.Hits, Misses: st.Cache.Misses, Entries: st.Cache.Entries},
		Answers:        st.Answers,
		QueueWaitNs:    st.QueueWait.Nanoseconds(),
		SessionBuildNs: st.SessionBuild.Nanoseconds(),
		BaselineWaitNs: st.BaselineWait.Nanoseconds(),
	}
}

// familyOf returns a spec's family name.
func familyOf(spec string) string {
	if sp, err := match.Parse(spec); err == nil {
		return sp.Family
	}
	return spec
}

// update replays one admin PUT through httpserve's handler, in
// process, on a recorder. The store append inside it is timed by
// timedStore. The traced pass times the other layers the PUT runs
// internally by re-running them on the same inputs afterwards:
// ReadRepository on the same body, DiffSnapshots on the same
// snapshots, and Index.Apply on the tenant's twin index.
func (x *replay) update(ctx context.Context, req int, u *putOp, body []byte) *updateStat {
	us := &updateStat{}
	svc, err := x.srv.Service(u.Tenant)
	if err != nil {
		us.err = err
		return us
	}
	before := svc.Snapshot()
	ten := x.st.Tenant(u.Tenant)
	size0, err := ten.Stats()
	if err != nil {
		us.err = err
		return us
	}

	root := x.tr.open(req, -1, "httpserve.put")
	upd := x.tr.open(req, root, "match.update")
	x.appendSpan, x.appendReq, x.appendDur = upd, req, 0
	hreq := httptest.NewRequestWithContext(ctx, http.MethodPut, "/admin/v1/tenants/"+u.Tenant, bytes.NewReader(body))
	hreq.Header.Set("Authorization", "Bearer "+adminToken)
	rec := httptest.NewRecorder()
	start := time.Now()
	x.handler.ServeHTTP(rec, hreq)
	end := time.Now()
	x.tr.place(root, start, end)
	us.appendDur = x.appendDur
	if rec.Code != http.StatusOK {
		us.err = fmt.Errorf("PUT %s: status %d: %s", u.Tenant, rec.Code, strings.TrimSpace(rec.Body.String()))
		return us
	}
	if x.tr != nil {
		if us.err = x.rerun(req, root, upd, u, body, before, svc.Snapshot(), start, end, us); us.err != nil {
			return us
		}
		if ix, err := svc.Index(); err != nil || !reflect.DeepEqual(x.twins[u.Tenant].State(), ix.State()) {
			us.err = fmt.Errorf("%s: the twin cluster index left the served one after PUT %d (%v)", u.Tenant, u.Seq, err)
			return us
		}
	}

	size1, err := ten.Stats()
	if err != nil {
		us.err = err
		return us
	}
	us.bytes = size1.SizeBytes - size0.SizeBytes

	// matchd's compactor rewrites a log once it holds CompactAfter
	// diffs; here that happens right after the update that crossed it.
	if size1.DiffRecords >= x.w.P.CompactAfter {
		id := x.tr.open(req, -1, "store.compact")
		t0 := time.Now()
		err = compactLike(ten, svc)
		us.compact, us.compacted = time.Since(t0), true
		x.tr.close(id)
		if err != nil {
			us.err = err
		}
	}
	return us
}

// rerun times, after a PUT whose handler ran from start to end, the
// layers the handler ran internally: the body's ReadRepository, whose
// re-run splits the handler's wall between decode and update, the
// snapshot diff, and the cluster-index Apply on the tenant's twin.
func (x *replay) rerun(req, root, upd int, u *putOp, body []byte, before, after *xmlschema.Snapshot, start, end time.Time, us *updateStat) error {
	t0 := time.Now()
	if _, err := xmlschema.ReadRepository(bytes.NewReader(body)); err != nil {
		return err
	}
	us.repoDecode = time.Since(t0)
	us.update = end.Sub(start) - us.repoDecode
	x.tr.record(req, root, "httpserve.repo_decode", start, start.Add(us.repoDecode))
	x.tr.place(upd, start.Add(us.repoDecode), end)

	id := x.tr.open(req, -1, "xmlschema.diff")
	t0 = time.Now()
	diff := xmlschema.DiffSnapshots(before, after)
	us.diff = time.Since(t0)
	x.tr.close(id)

	id = x.tr.open(req, -1, "clustered.apply")
	t0 = time.Now()
	twin, err := x.twins[u.Tenant].Apply(after.Repository(), diff)
	us.apply = time.Since(t0)
	x.tr.close(id)
	if err != nil {
		return err
	}
	x.twins[u.Tenant] = twin
	return nil
}

// storeMemo is matchd's default -store-memo: warm memo entries kept per
// compaction.
const storeMemo = 4096

// compactLike compacts a tenant log from its live service exactly as
// matchd's compactor does.
func compactLike(ten *store.Tenant, svc *match.Service) error {
	metric := engine.New(nil).MetricName()
	var ixState *clustered.State
	if st, ok := svc.IndexState(); ok {
		ixState = st
	}
	var entries []engine.MemoEntry
	if memo, ok := svc.Scorer().(*engine.Memo); ok {
		entries = memo.Entries(storeMemo)
	}
	return ten.Compact(svc.Version(), svc.Repository(), metric, ixState, metric, entries)
}

// traceOps picks the replayed operations: the first TraceReads of the
// one-at-a-time reads, then enough of the workload's PUTs for every
// tenant log to compact.
func traceOps(w *workload) []op {
	var ops []op
	for _, m := range w.Seq[:min(w.P.TraceReads, len(w.Seq))] {
		ops = append(ops, op{Match: m})
	}
	for _, u := range w.Updates[:min((w.P.CompactAfter+4)*w.P.Tenants, len(w.Updates))] {
		ops = append(ops, op{Put: u})
	}
	return ops
}

// passResult is one replay pass.
type passResult struct {
	reads   []*readStat
	updates []*updateStat
	x       *replay
	builds  []time.Duration
	warm    []*readStat
	// gc0 and gc1 bracket the replayed operations (traced pass).
	gc0, gc1 runtimeSample
}

// runPass prepares a server and replays ops through it.
func runPass(ctx context.Context, w *workload, corpus map[string][]byte, bodies [][]byte, ops []op, dir string, tr *tracer) (*passResult, error) {
	x, err := newReplay(w, corpus, dir, tr)
	if err != nil {
		return nil, err
	}
	p := &passResult{x: x}
	if p.builds, p.warm, err = x.warm(ctx); err != nil {
		x.srv.Close()
		return nil, err
	}
	if tr != nil {
		p.gc0 = readRuntime()
	}
	for i, o := range ops {
		if o.Match != nil {
			p.reads = append(p.reads, x.read(ctx, i, o.Match, bodies[i]))
		} else {
			p.updates = append(p.updates, x.update(ctx, i, o.Put, bodies[i]))
		}
	}
	if tr != nil {
		p.gc1 = readRuntime()
	}
	return p, nil
}

// runTraced runs the untraced and the traced replay, then the wire
// transport pass and the allocation pass, and reports the per-layer
// metrics. Spans are written to spansPath.
func runTraced(ctx context.Context, w *workload, dir, spansPath string) (*result, error) {
	r := &result{Workload: w.Name}
	corpus := map[string][]byte{}
	for _, tn := range w.Fleet {
		var buf bytes.Buffer
		if err := xmlschema.WriteRepository(&buf, tn.Repo()); err != nil {
			return nil, err
		}
		corpus[tn.Name] = buf.Bytes()
	}
	ops := traceOps(w)
	bodies := make([][]byte, len(ops))
	var sent []*putOp
	for i, o := range ops {
		var err error
		if o.Match != nil {
			bodies[i], err = json.Marshal(o.Match.request(w.P.Delta))
		} else {
			var buf bytes.Buffer
			err = xmlschema.WriteRepository(&buf, o.Put.Repo)
			bodies[i] = buf.Bytes()
			sent = append(sent, o.Put)
		}
		if err != nil {
			return nil, err
		}
	}

	// Untraced pass first, on its own server, then released.
	plain, err := runPass(ctx, w, corpus, bodies, ops, filepath.Join(dir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	plain.x.srv.Close()
	plainWalls := readWalls(plain.reads)
	plain = nil
	runtime.GC()

	tr := &tracer{t0: time.Now()}
	traced, err := runPass(ctx, w, corpus, bodies, ops, filepath.Join(dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	x := traced.x
	defer x.srv.Close()
	// The live heap is the server's alone: the twins, which only the
	// traced pass keeps, are released first.
	x.twins = nil
	runtime.GC()
	traced.gc1.liveHeap = readRuntime().liveHeap
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	transport, wire, err := wirePass(ctx, x, ops)
	if err != nil {
		return nil, err
	}
	allocs, err := allocPass(ctx, x)
	if err != nil {
		return nil, err
	}

	// Checks: every answer of the traced pass (its reads all come
	// before its PUTs) against the initial reference, the wire pass against the final state, and the final
	// repositories against the generator's mirror.
	ref, err := newReference(initialRepos(w), w.P.Delta)
	if err != nil {
		return nil, err
	}
	var checked []*matchOutcome
	for _, rs := range traced.warm {
		checked = append(checked, rs.out)
	}
	for _, rs := range traced.reads {
		r.Attempted++
		if rs.err != nil {
			r.fail(fmt.Errorf("traced read %s/%s/%s: %w", rs.op.Tenant, rs.op.Personal.Name, rs.op.Spec, rs.err))
			continue
		}
		checked = append(checked, rs.out)
	}
	r.Attempted += len(traced.warm)
	for _, err := range checkAll(ref, checked, w.P.Conns) {
		r.fail(err)
	}
	for _, us := range traced.updates {
		r.Attempted++
		if us.err != nil {
			r.fail(fmt.Errorf("traced update: %w", us.err))
		}
	}
	finalRef, err := stateReference(w, sent)
	if err != nil {
		return nil, err
	}
	repos, _ := w.expectedState(sent)
	r.Attempted += len(wire)
	for _, o := range wire {
		if o.Err != nil {
			r.fail(fmt.Errorf("wire %s/%s: %w", o.Op.Tenant, o.Op.Spec, o.Err))
		}
	}
	for _, err := range checkAll(finalRef, wire, w.P.Conns) {
		r.fail(err)
	}
	for _, tn := range w.Fleet {
		svc, err := x.srv.Service(tn.Name)
		if err != nil {
			return nil, err
		}
		if err := sameRepo(svc.Repository(), repos[tn.Name]); err != nil {
			r.fail(fmt.Errorf("%s: final state differs from the mirror: %w", tn.Name, err))
		}
	}

	reportLayers(r, w, traced, plainWalls, transport, allocs, tr)
	r.linef("mirrors matchd %s",
		strings.Join(daemonFlags(w.P, "<corpus>", "<store>"), " "))
	r.linef("spans: %d written to %s", len(tr.spans), spansPath)
	return r, nil
}

// readWalls returns the walls of the successful reads.
func readWalls(reads []*readStat) []time.Duration {
	var out []time.Duration
	for _, rs := range reads {
		if rs.err == nil {
			out = append(out, rs.wall)
		}
	}
	return out
}

// runtimeSample is a reading of the Go runtime's own counters.
type runtimeSample struct {
	gcCPU, totalCPU, liveHeap float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), liveHeap: val(s[2].Value)}
}

// wireReads caps the wire pass.
const wireReads = 100

// wirePass serves the traced server through httpserve.New, configured
// as matchd configures it, behind a middleware of this benchmark that
// times the handler, and sends the first reads through
// httpserve.Client. The transport cost of a request is the client's
// wall minus the handler's.
func wirePass(ctx context.Context, x *replay, ops []op) ([]time.Duration, []*matchOutcome, error) {
	inner := x.handler
	var handlerNs atomic.Int64
	mw := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		start := time.Now()
		inner.ServeHTTP(rw, req)
		handlerNs.Store(int64(time.Since(start)))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: mw}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	cl := httpserve.NewClient(ln.Addr().String(), "")
	ld := &loader{clients: []*httpserve.Client{cl}, delta: x.delta}

	var transport []time.Duration
	var outs []*matchOutcome
	for _, o := range ops {
		if o.Match == nil {
			continue
		}
		if len(outs) == wireReads {
			break
		}
		handlerNs.Store(0)
		mo := ld.match(ctx, cl, o.Match)
		outs = append(outs, mo)
		if mo.Err == nil {
			transport = append(transport, mo.Done.Sub(mo.Sent)-time.Duration(handlerNs.Load()))
		}
	}
	cl.Close()
	err = hs.Close()
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return transport, outs, err
}

// allocPass counts heap allocations of one search per planted personal
// and spec, each run alone on this goroutine against a warm session.
func allocPass(ctx context.Context, x *replay) ([]float64, error) {
	var out []float64
	var before, after runtime.MemStats
	for _, tn := range x.w.Fleet {
		svc, err := x.srv.Service(tn.Name)
		if err != nil {
			return nil, err
		}
		for _, p := range tn.Personals() {
			prob, err := svc.Problem(p)
			if err != nil {
				return nil, err
			}
			for _, sp := range specs {
				m, err := svc.Matcher(sp)
				if err != nil {
					return nil, err
				}
				runtime.ReadMemStats(&before)
				_, err = m.MatchContext(ctx, prob, x.delta)
				runtime.ReadMemStats(&after)
				if err != nil {
					return nil, err
				}
				out = append(out, float64(after.Mallocs-before.Mallocs))
			}
		}
	}
	return out, nil
}

// reportLayers turns the traced pass into the per-layer metrics.
func reportLayers(r *result, w *workload, p *passResult, plainWalls, transport []time.Duration, allocs []float64, tr *tracer) {
	gc0, gc1 := p.gc0, p.gc1
	var (
		decode, encode, session, queue, walls []time.Duration
		respBytes                             []float64
		search                                = map[string][]time.Duration{}
		misses, reads                         int
		pairs, cands, yielded, answers        int64
		overloaded                            int
	)
	for _, rs := range p.reads {
		if rs.overloaded {
			overloaded++
		}
		if rs.err != nil {
			continue
		}
		reads++
		walls = append(walls, rs.wall)
		decode = append(decode, rs.decode)
		encode = append(encode, rs.encode)
		session = append(session, rs.session)
		queue = append(queue, rs.queueWait)
		respBytes = append(respBytes, float64(rs.responseBytes))
		fam := familyOf(rs.op.Spec)
		search[fam] = append(search[fam], rs.search)
		if rs.sessionMiss {
			misses++
		}
		pairs += rs.memoMisses
		cands += int64(rs.candidates)
		yielded += int64(rs.yielded)
		answers += int64(rs.answers)
	}
	// Scoring cost per pair, over every session build that scored
	// pairs (the set-up builds included, so warm-mix has one too).
	var buildNs, buildPairs int64
	for _, rs := range append(append([]*readStat{}, p.warm...), p.reads...) {
		if rs.err == nil && rs.memoMisses > 0 {
			buildNs += int64(rs.session)
			buildPairs += rs.memoMisses
		}
	}
	var repoDecode, update, diff, apply, appendD, compact []time.Duration
	var storeBytes []float64
	for _, us := range p.updates {
		if us.err != nil {
			continue
		}
		repoDecode = append(repoDecode, us.repoDecode)
		update = append(update, us.update)
		diff = append(diff, us.diff)
		apply = append(apply, us.apply)
		appendD = append(appendD, us.appendDur)
		storeBytes = append(storeBytes, float64(us.bytes))
		if us.compacted {
			compact = append(compact, us.compact)
		}
	}
	var hits, lookups, entries int64
	for _, tn := range w.Fleet {
		if svc, err := p.x.srv.Service(tn.Name); err == nil {
			st := memoStats(svc)
			hits += st.Hits
			lookups += st.Hits + st.Misses
			entries += int64(st.Entries)
		}
	}
	self := tr.selfTimes()
	perRead := func(names ...string) float64 {
		var sum time.Duration
		for n, d := range self {
			for _, want := range names {
				if n == want || (strings.HasSuffix(want, ".") && strings.HasPrefix(n, want)) {
					sum += d
				}
			}
		}
		return us(sum) / float64(max(reads, 1))
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	searchUs := func(fam string) float64 { return us(median(search[fam])) }
	gcFrac := 0.0
	if d := gc1.totalCPU - gc0.totalCPU; d > 0 {
		gcFrac = (gc1.gcCPU - gc0.gcCPU) / d
	}
	tracedP50, plainP50 := median(append([]time.Duration{}, walls...)), median(plainWalls)

	vals := map[string]float64{
		"httpserve.decode_us":           us(median(decode)),
		"httpserve.encode_us":           us(median(encode)),
		"httpserve.response_bytes":      medianFloat(respBytes),
		"httpserve.transport_us":        us(median(transport)),
		"httpserve.repo_decode_ms":      ms(median(repoDecode)),
		"match.queue_wait_p99_us":       us(quantile(queue, 0.99)),
		"match.overloaded":              float64(overloaded),
		"match.update_ms":               ms(median(update)),
		"match.session_build_us":        us(median(session)),
		"match.session_miss_ratio":      ratio(int64(misses), int64(reads)),
		"engine.pairs_scored":           ratio(pairs, int64(reads)),
		"engine.memo_hit_ratio":         ratio(hits, lookups),
		"engine.memo_entries":           float64(entries),
		"similarity.ns_per_pair":        ratio(buildNs, buildPairs),
		"matching.search_us.exhaustive": searchUs("exhaustive"),
		"matching.search_us.parallel":   searchUs("parallel"),
		"matchers.search_us.beam":       searchUs("beam"),
		"matchers.search_us.topk":       searchUs("topk"),
		"matchers.search_us.clustered":  searchUs("clustered"),
		"matching.search_candidates":    ratio(cands, int64(reads)),
		"matching.yield_ratio":          ratio(yielded, cands),
		"matching.search_allocs":        medianFloat(allocs),
		"matching.answers":              ratio(answers, int64(reads)),
		"cluster.index_build_ms":        ms(median(p.builds)),
		"clustered.apply_ms":            ms(median(apply)),
		"xmlschema.diff_ms":             ms(median(diff)),
		"store.append_ms":               ms(median(appendD)),
		"store.bytes_per_update":        medianFloat(storeBytes),
		"store.compact_ms":              ms(median(compact)),
		"runtime.gc_cpu_fraction":       gcFrac,
		"runtime.heap_live_mb":          gc1.liveHeap / (1 << 20),
		"selftime.httpserve_us":         perRead("httpserve.decode", "httpserve.encode"),
		"selftime.match_us":             perRead("match.session", "match.server", "match.queue", "match.lookup"),
		"selftime.search_us":            perRead("search."),
		"trace.overhead_us":             us(tracedP50 - plainP50),
	}
	// Sample counts; metrics absent here summarize every read, and
	// zero marks a single reading.
	samples := map[string]int{
		"httpserve.transport_us": len(transport), "httpserve.repo_decode_ms": len(repoDecode),
		"match.update_ms": len(update), "clustered.apply_ms": len(apply), "xmlschema.diff_ms": len(diff),
		"store.append_ms": len(appendD), "store.bytes_per_update": len(storeBytes), "store.compact_ms": len(compact),
		"matching.search_allocs": len(allocs), "cluster.index_build_ms": len(p.builds),
		"engine.memo_entries": 0, "runtime.gc_cpu_fraction": 0, "runtime.heap_live_mb": 0, "match.overloaded": 0,
	}
	for _, lm := range layerMetrics {
		n, ok := samples[lm.Name]
		if !ok {
			n = reads
		}
		r.add(lm.Name, lm.Unit, vals[lm.Name], n, "moves "+lm.Moves+" on "+lm.Where)
	}

	r.linef("traced replay: %d reads, %d updates (%d compactions); untraced p50 %.1f us, traced p50 %.1f us",
		reads, len(p.updates), len(compact), us(plainP50), us(tracedP50))
	// Server-side self time per read, and the predictions it tests.
	srch := perRead("search.")
	sess := perRead("match.session")
	wire := perRead("httpserve.decode", "httpserve.encode")
	rest := perRead("match.server", "match.queue", "match.lookup")
	total := srch + sess + wire + rest
	if total > 0 {
		r.linef("server-side self time per read: search %.0f us (%.0f%%), session build %.0f us (%.0f%%), wire decode+encode %.0f us (%.0f%%), server other %.0f us (%.0f%%)",
			srch, 100*srch/total, sess, 100*sess/total, wire, 100*wire/total, rest, 100*rest/total)
	}
	shares := map[string]float64{"search": srch, "session build": sess, "wire": wire, "server other": rest}
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	switch w.Name {
	case wlWarm:
		r.linef("prediction (warm-mix): search is the largest server-side share — %s (largest: %s); session build ≈ 0 — %s (median %.1f us)",
			verdict(names[0] == "search"), names[0], verdict(us(median(session)) < 100), us(median(session)))
	case wlFresh:
		r.linef("prediction (fresh-personals): session build is a major share — %s (%.0f%% of server-side self time)",
			verdict(total > 0 && sess/total >= 0.25), 100*sess/max(total, 1))
	}
}

// verdict renders a prediction outcome.
func verdict(ok bool) string {
	if ok {
		return "holds"
	}
	return "FAILS"
}
