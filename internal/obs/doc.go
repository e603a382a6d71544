// Package obs is the serving stack's dependency-free observability
// kernel: stage-granular span tracing propagated through
// context.Context, bounded ring buffers with tail-based capture of slow
// and errored traces, and lock-free latency histograms for the
// Prometheus exposition.
//
// # Spans
//
// A Trace is one request's flat span tree: spans are appended under a
// single mutex and refer to their parent by index, so recording a span
// costs one short critical section and (amortized) one slice slot —
// tracing sits at stage granularity (queue wait, session build, cost
// tables, search), never on the scored-pair hot path. Span is a
// value-type handle; the zero Span no-ops every method, so code
// instruments unconditionally:
//
//	ctx, sp := obs.StartSpan(ctx, "cost_tables")
//	defer sp.End()
//	sp.SetInt("pairs_pruned", pruned)
//
// When no trace rides the context, StartSpan returns the context
// unchanged and the zero Span: the disabled path performs no
// allocations (guarded by TestDisabledSpanZeroAlloc). Attribute setters
// are typed (SetStr/SetInt/SetFloat/SetBool) so values are never boxed
// through interface{} on the way in.
//
// Spans can also be recorded retroactively (Record, with explicit start
// and end times) for stages measured before the trace existed — the
// HTTP edge uses this when a request opts into tracing via its body,
// which is only decoded after the edge timestamp was taken.
//
// # Tracer
//
// A Tracer decides which requests get a Trace (deterministic 1-in-N
// head sampling from SampleRate, forced for requests that ask) and
// captures finished traces into two bounded rings: every captured trace
// enters the recent ring, and traces that were slow (≥ Slow) or errored
// also enter the slow ring — tail-based capture, so the interesting
// traces survive long after the recent ring has wrapped. Snapshot
// exports both rings newest-first for the /debug/traces endpoint.
//
// # Histograms
//
// Histogram is a fixed-bucket latency histogram: atomic per-bucket
// counters, an atomic nanosecond sum, no locks on Observe. Snapshot
// returns cumulative bucket counts in Prometheus le-order (the +Inf
// bucket equals the total count). DefaultLatencyBuckets spans 100µs to
// 10s, wide enough for both stage and end-to-end request durations.
package obs
