package main

// Tests of the benchmark itself: deterministic inputs, the metric
// names and units BENCHMARK.json declares, failure accounting for a
// wrong answer, and a tiny run of every workload. Run them with
//
//	cd perfbench && go test ./...

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpserve"
	"repro/internal/store"
	"repro/internal/xmlschema"
	"repro/match"
)

// tinyParams shrinks a run to well under a second of load.
func tinyParams() params {
	return params{
		Tenants: 2, Personals: 3, Schemas: 20,
		Delta: 0.4, Conns: 2, Rounds: 2,
		SeqReads: 24, SatReads: 24, UpdateOps: 8,
		CompactAfter: 2, CompactInterval: time.Second,
		TraceReads: 20,
	}
}

func TestWorkloadDeterministicPerSeed(t *testing.T) {
	encode := func(name string, seed uint64) []byte {
		w, err := newWorkload(name, seed, tinyParams())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range workloadNames {
		a, b := encode(name, 7), encode(name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if bytes.Equal(a, encode(name, 8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

func TestFreshPersonalsAreNew(t *testing.T) {
	w, err := newWorkload(wlFresh, 3, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]*matchOp(nil), w.Seq...), w.Sat...) {
		b, err := json.Marshal(httpserve.WireSchema(m.Personal))
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(b)] {
			t.Fatalf("personal %s sent twice", m.Personal.Name)
		}
		seen[string(b)] = true
		if !strings.ContainsAny(string(b), string(hostileLetters)) {
			t.Fatalf("personal %s has no hostile letter", m.Personal.Name)
		}
	}
}

// TestRoundsShareOneMix pins what makes figures comparable across
// seeds and rounds: at the published run length, and at one that does
// not divide evenly, every round of each read phase sends the same
// requests up to order, and every round the same number of PUTs.
func TestRoundsShareOneMix(t *testing.T) {
	mix := func(ms []*matchOp) map[string]int {
		out := map[string]int{}
		for _, m := range ms {
			out[fmt.Sprintf("%s/%s/%s/%d", m.Tenant, m.Personal.Name, m.Spec, m.Limit)]++
		}
		return out
	}
	for _, seconds := range []int{30, 31} {
		w, err := newWorkload(wlWarm, 5, defaultParams(wlWarm, seconds, 2))
		if err != nil {
			t.Fatal(err)
		}
		rounds := w.P.Rounds
		for _, phase := range []struct {
			name string
			ms   []*matchOp
		}{{"one-at-a-time", w.Seq}, {"closed-loop", w.Sat}} {
			want := mix(round(phase.ms, rounds, 0))
			counts := map[int]bool{}
			for _, n := range want {
				counts[n] = true
			}
			if len(counts) != 1 || len(want) != w.P.block() {
				t.Errorf("%d s: %s round 0 sends request kinds unequally often (counts %v)", seconds, phase.name, counts)
			}
			for k := 1; k < rounds; k++ {
				if got := mix(round(phase.ms, rounds, k)); !reflect.DeepEqual(got, want) {
					t.Errorf("%d s: %s round %d sends another mix than round 0", seconds, phase.name, k)
				}
			}
		}
		if len(w.Updates)%rounds != 0 || len(w.Updates) == 0 {
			t.Errorf("%d s: %d PUTs do not split evenly over %d rounds", seconds, len(w.Updates), rounds)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json these tests compare.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, perfbench has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, wl := range bj.Workloads {
		if wl.Name != workloadNames[i] || wl.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, wl.Name, wl.Why, workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, perfbench %d", len(bj.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEndMetrics[i].Name || m.Unit != endToEndMetrics[i].Unit {
			t.Errorf("end_to_end[%d] = %s/%s, perfbench prints %s/%s", i, m.Name, m.Unit, endToEndMetrics[i].Name, endToEndMetrics[i].Unit)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, perfbench %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.Name || m.Unit != lm.Unit || m.Better != lm.Better {
			t.Errorf("per_layer[%d] = %+v, perfbench has %s/%s/%s", i, m, lm.Name, lm.Unit, lm.Better)
		}
	}
}

// inprocTarget serves a match.Server through httpserve in this process,
// configured like matchd, optionally behind a response-rewriting
// middleware.
type inprocTarget struct {
	srv    *match.Server
	hs     *http.Server
	served chan error
	url    string
	dir    string
}

func newInprocTarget(t *testing.T, w *workload, wrap func(http.Handler) http.Handler) *inprocTarget {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := match.NewServer(match.WithServerStore(func(tenant string) match.TenantStore { return st.Tenant(tenant) }))
	for _, tn := range w.Fleet {
		var buf bytes.Buffer
		if err := xmlschema.WriteRepository(&buf, tn.Repo()); err != nil {
			t.Fatal(err)
		}
		repo, err := xmlschema.ReadRepository(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddTenant(tn.Name, repo); err != nil {
			t.Fatal(err)
		}
	}
	var h http.Handler = httpserve.New(srv, httpserve.Config{Auth: &httpserve.AuthConfig{AdminTokens: []string{adminToken}}})
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	it := &inprocTarget{srv: srv, hs: &http.Server{Handler: h}, served: make(chan error, 1), url: ln.Addr().String(), dir: dir}
	go func() { it.served <- it.hs.Serve(ln) }()
	t.Cleanup(func() { _ = it.stop() })
	return it
}

func (it *inprocTarget) addr() string          { return it.url }
func (it *inprocTarget) storeDir() string      { return it.dir }
func (it *inprocTarget) usage() (usage, error) { return readUsage(os.Getpid()) }

func (it *inprocTarget) stop() error {
	if it.hs == nil {
		return nil
	}
	err := it.hs.Close()
	<-it.served
	it.hs = nil
	it.srv.Close()
	return err
}

// tinyE2E runs measure() for workload name against a fresh in-process
// target; set-up probes start further in-process targets.
func tinyE2E(t *testing.T, name string, wrap func(http.Handler) http.Handler) *result {
	t.Helper()
	w, err := newWorkload(name, 5, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(initialRepos(w), w.P.Delta)
	if err != nil {
		t.Fatal(err)
	}
	boot := func(ctx context.Context) (*inprocTarget, time.Duration, []*matchOutcome) {
		t0 := time.Now()
		it := newInprocTarget(t, w, wrap)
		ld := newLoader(it.addr(), adminToken, w.P.Conns, w.P.Delta)
		warm := ld.saturate(ctx, warmOps(w)).Matches
		ld.close()
		return it, time.Since(t0), warm
	}
	it, setup, warm := boot(context.Background())
	probe := func(ctx context.Context) (time.Duration, []*matchOutcome, error) {
		it, dt, outs := boot(ctx)
		return dt, outs, it.stop()
	}
	r, err := measure(context.Background(), w, it, ref, setup, warm, probe)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// lastLine parses the result line a report ends with.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var rl resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rl); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return rl
}

func TestTinyRunOfEachWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			r := tinyE2E(t, name, nil)
			var buf bytes.Buffer
			if err := r.write(&buf); err != nil {
				t.Fatal(err)
			}
			rl := lastLine(t, buf.String())
			// The generator shares this process with the server here, so
			// only the answer checks decide; its CPU share may invalidate.
			if rl.Failed != 0 || rl.Attempted == 0 || rl.Correct != (r.Invalid == "") {
				t.Fatalf("tiny %s run: correct=%v failed=%d attempted=%d\n%s", name, rl.Correct, rl.Failed, rl.Attempted, buf.String())
			}
			if len(rl.Metrics) != len(endToEndMetrics) {
				t.Errorf("printed %d metrics, want %d", len(rl.Metrics), len(endToEndMetrics))
			}
			for _, m := range endToEndMetrics {
				got, ok := rl.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				if !strings.Contains(buf.String(), "  "+m.Name+" ") {
					t.Errorf("metric %s missing from the human-readable table", m.Name)
				}
			}
		})
	}
}

func TestTinyTracedRunOfEachWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := newWorkload(name, 6, tinyParams())
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.jsonl")
			r, err := runTraced(context.Background(), w, filepath.Join(dir, "run"), spans)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := r.write(&buf); err != nil {
				t.Fatal(err)
			}
			rl := lastLine(t, buf.String())
			if !rl.Correct || rl.Failed != 0 {
				t.Fatalf("traced %s run failed:\n%s", name, buf.String())
			}
			for _, m := range layerMetrics {
				got, ok := rl.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(rl.Metrics) != len(layerMetrics) {
				t.Errorf("printed %d metrics, want %d", len(rl.Metrics), len(layerMetrics))
			}
			if rl.Metrics["store.compact_ms"].Value <= 0 || rl.Metrics["match.update_ms"].Value <= 0 {
				t.Errorf("updates or compactions missing from the traced run:\n%s", buf.String())
			}
			if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
				t.Errorf("spans not written: %v", err)
			}
		})
	}
}

// perturbOne rewrites the nth match response: the first answer's score
// moves by 1e-9, which no real server would do.
func perturbOne(n int64) func(http.Handler) http.Handler {
	var count atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/match/") || count.Add(1) != n {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			var resp httpserve.MatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err == nil && len(resp.Answers) > 0 {
				resp.Answers[0].Score += 1e-9
				b, _ := json.Marshal(&resp)
				rec.Body = bytes.NewBuffer(b)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			_, _ = io.Copy(w, rec.Body)
		})
	}
}

func TestPerturbedAnswerCountsAsFailure(t *testing.T) {
	// Request 3 falls in the warm-up, 30 in the timed phases.
	for _, n := range []int64{3, 30} {
		r := tinyE2E(t, wlWarm, perturbOne(n))
		if r.Failed != 1 || r.correct() {
			t.Errorf("perturbing request %d: failed=%d correct=%v, want exactly one failure\n%v", n, r.Failed, r.correct(), r.Errors)
		}
	}
}
