package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanTreeShape: children parent correctly, retroactive spans keep
// their explicit times, and the export is structurally valid.
func TestSpanTreeShape(t *testing.T) {
	start := time.Now()
	tr := NewTrace("t1", "root", start)
	root := tr.Root()
	if !root.Active() {
		t.Fatal("root handle inactive")
	}

	a := root.StartChild("stage_a")
	a.SetStr("tenant", "acme")
	a.SetInt("answers", 7)
	a.SetFloat("delta", 0.4)
	a.SetBool("cache_hit", true)
	b := a.StartChild("stage_a_inner")
	b.End()
	a.End()
	root.Record("queue_wait", start, start.Add(3*time.Millisecond))

	tr.Finish(start.Add(10 * time.Millisecond))
	td := tr.Export(time.Now())
	if err := td.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(td.Spans) != 4 {
		t.Fatalf("want 4 spans, got %d", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	if got := byName["stage_a"].Parent; got != 0 {
		t.Errorf("stage_a parent = %d, want 0", got)
	}
	if got, want := td.Spans[byName["stage_a_inner"].Parent].Name, "stage_a"; got != want {
		t.Errorf("stage_a_inner parent = %q, want %q", got, want)
	}
	if got := byName["queue_wait"].DurationNs; got != (3 * time.Millisecond).Nanoseconds() {
		t.Errorf("retroactive span duration = %d, want 3ms", got)
	}
	if td.WallNs != (10 * time.Millisecond).Nanoseconds() {
		t.Errorf("trace wall = %d, want 10ms", td.WallNs)
	}
	attrs := map[string]any{}
	for _, a := range byName["stage_a"].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["tenant"] != "acme" || attrs["answers"] != int64(7) || attrs["cache_hit"] != true {
		t.Errorf("attrs mismatch: %v", attrs)
	}
}

// TestContextPropagation: StartSpan threads the child through the
// context; without a trace the context is returned unchanged.
func TestContextPropagation(t *testing.T) {
	base := context.Background()
	ctx2, sp := StartSpan(base, "noop")
	if sp.Active() {
		t.Error("span active without a trace on the context")
	}
	if ctx2 != base {
		t.Error("StartSpan without a trace must return the context unchanged")
	}

	tr := NewTrace("t", "root", time.Now())
	ctx := ContextWith(base, tr.Root())
	ctx3, child := StartSpan(ctx, "stage")
	if !child.Active() {
		t.Fatal("child inactive with a trace on the context")
	}
	if got := FromContext(ctx3); got != child {
		t.Error("context does not carry the child span")
	}
	child.End()
}

// TestDisabledSpanZeroAlloc: the whole disabled-tracer fast path —
// context lookup, child start, attributes, end — must not allocate.
func TestDisabledSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, sp := StartSpan(ctx, "stage")
		sp.SetStr("tenant", "acme")
		sp.SetInt("answers", 1)
		sp.SetFloat("delta", 0.4)
		sp.SetBool("hit", true)
		sp.Record("queue_wait", time.Time{}, time.Time{})
		sp.End()
		_ = c2
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f times per op, want 0", allocs)
	}
	var tr *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		tr.Capture(nil, time.Time{}, false)
	})
	if allocs != 0 {
		t.Fatalf("nil tracer capture allocates %.1f times per op, want 0", allocs)
	}
}

// TestTracerSampling: rate 1 traces everything, rate 0 nothing, 1/N
// deterministically every Nth, and forced requests always record.
func TestTracerSampling(t *testing.T) {
	always := New(Config{SampleRate: 1})
	for i := 0; i < 5; i++ {
		if always.Begin("", "r", time.Now(), false) == nil {
			t.Fatal("rate 1 must sample every request")
		}
	}
	never := New(Config{SampleRate: 0})
	if never.Begin("", "r", time.Now(), false) != nil {
		t.Fatal("rate 0 must sample nothing")
	}
	if never.Begin("forced-id", "r", time.Now(), true) == nil {
		t.Fatal("forced request must record at rate 0")
	}
	quarter := New(Config{SampleRate: 0.25})
	n := 0
	for i := 0; i < 400; i++ {
		if quarter.Begin("", "r", time.Now(), false) != nil {
			n++
		}
	}
	if n != 100 {
		t.Fatalf("rate 0.25 sampled %d of 400, want exactly 100 (deterministic 1-in-4)", n)
	}
}

// TestTracerIDs: minted ids are unique; an inbound id is preserved.
func TestTracerIDs(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tc := tr.Begin("", "r", time.Now(), false)
		if seen[tc.ID()] {
			t.Fatalf("duplicate trace id %s", tc.ID())
		}
		seen[tc.ID()] = true
	}
	if got := tr.Begin("inbound-7", "r", time.Now(), true).ID(); got != "inbound-7" {
		t.Fatalf("inbound id not preserved: %s", got)
	}
}

// TestCaptureRings: every capture lands in recent; slow and errored
// traces additionally land in the slow ring; rings bound and order
// newest-first.
func TestCaptureRings(t *testing.T) {
	tr := New(Config{SampleRate: 1, Slow: 50 * time.Millisecond, RecentRing: 4, SlowRing: 4})
	start := time.Now()
	mk := func(id string, wall time.Duration, errored bool) {
		tc := tr.Begin(id, "req", start, false)
		tr.Capture(tc, start.Add(wall), errored)
	}
	mk("fast-1", time.Millisecond, false)
	mk("slow-1", 60*time.Millisecond, false)
	mk("err-1", time.Millisecond, true)
	for i := 0; i < 6; i++ {
		mk(fmt.Sprintf("fast-%d", i+2), time.Millisecond, false)
	}

	snap := tr.Snapshot()
	if len(snap.Recent) != 4 {
		t.Fatalf("recent ring holds %d, want 4", len(snap.Recent))
	}
	if snap.Recent[0].ID != "fast-7" {
		t.Errorf("recent[0] = %s, want newest fast-7", snap.Recent[0].ID)
	}
	slowIDs := map[string]bool{}
	for _, td := range snap.Slow {
		slowIDs[td.ID] = true
		if err := td.Validate(); err != nil {
			t.Error(err)
		}
	}
	if !slowIDs["slow-1"] || !slowIDs["err-1"] {
		t.Errorf("slow ring %v must tail-capture slow-1 and err-1", slowIDs)
	}
	if slowIDs["fast-1"] {
		t.Error("fast trace leaked into the slow ring")
	}
	if snap.Sampled != 9 || snap.Captured != 9 {
		t.Errorf("counters sampled=%d captured=%d, want 9/9", snap.Sampled, snap.Captured)
	}
	if !snap.Slow[0].Err && snap.Slow[0].ID == "err-1" {
		t.Error("errored capture lost its Err mark")
	}
}

// TestConcurrentSpans: concurrent children and captures race-free (run
// under -race by the suite).
func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{SampleRate: 1})
	tc := tr.Begin("", "root", time.Now(), false)
	root := tc.Root()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.StartChild("worker")
				sp.SetInt("g", int64(g))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	tr.Capture(tc, time.Now(), false)
	snap := tr.Snapshot()
	td := snap.Recent[0]
	if err := td.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(td.Spans) != 1+8*50 {
		t.Fatalf("got %d spans, want %d", len(td.Spans), 1+8*50)
	}
}

// TestValidate rejects malformed trees.
func TestValidate(t *testing.T) {
	bad := &TraceData{ID: "x", Spans: []SpanData{{Name: "root", Parent: -1}, {Name: "c", Parent: 5}}}
	if bad.Validate() == nil {
		t.Error("forward parent reference must fail validation")
	}
	empty := &TraceData{ID: "x"}
	if empty.Validate() == nil {
		t.Error("empty trace must fail validation")
	}
	neg := &TraceData{ID: "x", Spans: []SpanData{{Name: "root", Parent: -1, DurationNs: -5}}}
	if neg.Validate() == nil {
		t.Error("negative duration must fail validation")
	}
}
