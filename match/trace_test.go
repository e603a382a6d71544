package match

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedCtx mints a fresh trace and returns a context carrying its
// root span, plus the trace for later export.
func tracedCtx(id string) (context.Context, *obs.Trace) {
	tr := obs.NewTrace(id, "test_root", time.Now())
	return obs.ContextWith(context.Background(), tr.Root()), tr
}

// exportClosed finishes and exports a trace with a far-future export
// instant: any span left open (leaked) would show an absurd duration,
// which the caller can assert against.
func exportClosed(t *testing.T, tr *obs.Trace) *obs.TraceData {
	t.Helper()
	tr.Finish(time.Now())
	td := tr.Export(time.Now().Add(time.Hour))
	if err := td.Validate(); err != nil {
		t.Fatalf("trace %s invalid: %v", td.ID, err)
	}
	for _, sp := range td.Spans {
		if sp.Duration() > 30*time.Minute {
			t.Errorf("trace %s: span %q never ended (duration %v)", td.ID, sp.Name, sp.Duration())
		}
	}
	return td
}

// countSpans returns the per-name span counts of a trace.
func countSpans(td *obs.TraceData) map[string]int {
	out := map[string]int{}
	for _, sp := range td.Spans {
		out[sp.Name]++
	}
	return out
}

// TestTraceSpanTreeCoalescing: a coalesced batch under one trace
// yields one "request" span per *executed* request (coalesced
// duplicates share the execution), each parented on the root, with
// session_build and search children and a recorded queue wait.
func TestTraceSpanTreeCoalescing(t *testing.T) {
	tenants := testTenants(t, 41, 1, 1, 12)
	srv := NewServer(WithWorkers(2))
	defer srv.Close()
	addAll(t, srv, tenants)
	name := tenants[0].Name
	p := tenants[0].Personals()[0]

	ctx, tr := tracedCtx("trace-coalesce")
	req := Request{Personal: p, Delta: 0.4, Matcher: "beam:8"}
	batch := []BatchRequest{
		{Tenant: name, Request: req},
		{Tenant: name, Request: Request{Personal: p, Delta: 0.4, Matcher: "exhaustive"}},
		{Tenant: name, Request: req}, // coalesces with slot 0
	}
	res := srv.MatchBatch(ctx, batch)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if res[0].Result != res[2].Result {
		t.Fatal("identical requests were not coalesced; span assertions below assume 2 executions")
	}

	td := exportClosed(t, tr)
	names := countSpans(td)
	if names["request"] != 2 {
		t.Errorf("request spans = %d, want 2 (3 batch slots, 2 executions)", names["request"])
	}
	if names["queue_wait"] != 1 {
		t.Errorf("queue_wait spans = %d, want 1 (one per group)", names["queue_wait"])
	}
	if names["session_build"] != 2 || names["search"] != 2 {
		t.Errorf("session_build/search = %d/%d, want 2/2", names["session_build"], names["search"])
	}
	if names["cost_tables"] == 0 {
		t.Error("no cost_tables span for a cold session build")
	}

	// Parenting: request spans hang off the root; each session_build
	// and search hangs off a request span.
	isRequest := map[int]bool{}
	for i, sp := range td.Spans {
		switch sp.Name {
		case "request":
			if sp.Parent != 0 {
				t.Errorf("request span parent = %d, want root (0)", sp.Parent)
			}
			isRequest[i] = true
		case "session_build", "search":
			if sp.Parent < 0 || !isRequest[sp.Parent] {
				t.Errorf("%s span parent = %d, want a request span", sp.Name, sp.Parent)
			}
		}
	}

	// The queue wait the span tree shows is the same one Stats carries.
	if res[0].Result.Stats.QueueWait < 0 {
		t.Errorf("negative Stats.QueueWait %v", res[0].Result.Stats.QueueWait)
	}
	if res[0].Result.Stats.SessionBuild <= 0 {
		t.Error("Stats.SessionBuild not measured on the server path")
	}
}

// TestTraceCancellationClosesSpans: a request cancelled mid-search
// still leaves a fully closed, valid span tree — the search span ends
// at the cancellation, nothing leaks open.
func TestTraceCancellationClosesSpans(t *testing.T) {
	tenants := testTenants(t, 43, 1, 1, 10)
	srv := NewServer(WithWorkers(1))
	defer srv.Close()
	addAll(t, srv, tenants)
	p := tenants[0].Personals()[0]

	bl := &blocker{started: make(chan struct{}, 1), release: make(chan struct{})}
	defer close(bl.release)
	ctx, tr := tracedCtx("trace-cancel")
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(1)
	var matchErr error
	go func() {
		defer wg.Done()
		_, matchErr = srv.Match(cctx, tenants[0].Name, Request{Personal: p, Delta: 0.4, System: bl})
	}()
	<-bl.started // the search span is open right now
	cancel()
	wg.Wait()
	if !errors.Is(matchErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", matchErr)
	}

	// Match returns the moment the caller's ctx ends; the worker is
	// still unwinding and closes the spans as it exits. Wait for the
	// group to really finish before asserting every span ended.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().InFlight > 0 {
		if time.Now().After(deadline) {
			t.Fatal("cancelled group never finished")
		}
		time.Sleep(time.Millisecond)
	}

	td := exportClosed(t, tr)
	names := countSpans(td)
	for _, want := range []string{"queue_wait", "request", "session_build", "search"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from cancelled trace (got %v)", want, names)
		}
	}
}

// TestTraceDrainNoLeakedSpans: Drain completes every admitted traced
// request and leaves no open spans behind; traces from concurrent
// requests each hold exactly their own request span.
func TestTraceDrainNoLeakedSpans(t *testing.T) {
	tenants := testTenants(t, 47, 2, 2, 10)
	srv := NewServer(WithWorkers(2), WithQueueDepth(16))
	addAll(t, srv, tenants)

	const n = 8
	traces := make([]*obs.Trace, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tn := tenants[i%len(tenants)]
		ctx, tr := tracedCtx(fmt.Sprintf("trace-drain-%d", i))
		traces[i] = tr
		wg.Add(1)
		go func(ctx context.Context, tn string, req Request) {
			defer wg.Done()
			if _, err := srv.Match(ctx, tn, req); err != nil && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrServerClosed) {
				t.Errorf("match: %v", err)
			}
		}(ctx, tn.Name, Request{
			Personal: tn.Personals()[i%len(tn.Personals())],
			Delta:    0.4,
			Matcher:  "beam:8",
		})
	}
	wg.Wait()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, tr := range traces {
		td := exportClosed(t, tr)
		names := countSpans(td)
		if names["request"] > 1 {
			t.Errorf("trace %s: %d request spans for a single request", td.ID, names["request"])
		}
	}
}

// TestTraceSearchSpanCounters: the "search" span carries the run's
// search-work counters, equal to the SearchStats in Result.Stats.
func TestTraceSearchSpanCounters(t *testing.T) {
	tenants := testTenants(t, 43, 1, 1, 12)
	srv := NewServer(WithWorkers(1))
	defer srv.Close()
	addAll(t, srv, tenants)
	for _, spec := range []string{"exhaustive", "topk:0.035", "beam:8", "clustered"} {
		ctx, tr := tracedCtx("trace-counters-" + spec)
		res, err := srv.Match(ctx, tenants[0].Name, Request{Personal: tenants[0].Personals()[0], Delta: 0.4, Matcher: spec})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{
			"candidates": int64(res.Stats.Search.Candidates),
			"pruned":     int64(res.Stats.Search.Pruned),
			"yielded":    int64(res.Stats.Search.Yielded),
		}
		if want["candidates"] == 0 {
			t.Fatalf("%s: no search work recorded", spec)
		}
		td := exportClosed(t, tr)
		found := false
		for _, sp := range td.Spans {
			if sp.Name != "search" {
				continue
			}
			found = true
			got := map[string]any{}
			for _, a := range sp.Attrs {
				got[a.Key] = a.Value
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("%s: search span %s = %v, want %d", spec, k, got[k], v)
				}
			}
		}
		if !found {
			t.Fatalf("%s: no search span", spec)
		}
	}
}
