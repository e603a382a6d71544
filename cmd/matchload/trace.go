// Per-stage latency decomposition from inline span traces (-trace).
package main

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/httpserve"
	"repro/internal/obs"
)

// stageOrder is the reporting order of the span-derived stages, edge
// to leaf. Absent stages (e.g. baseline_wait on exhaustive specs) are
// skipped.
var stageOrder = []string{
	"decode", "queue_wait", "session_build", "cost_tables",
	"baseline_wait", "search",
}

// stageDurations reduces one span tree to per-span-name wall clock:
// durations of same-named spans sum.
func stageDurations(td *obs.TraceData) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, sp := range td.Spans {
		out[sp.Name] += sp.Duration()
	}
	return out
}

// reportTraceStages validates every inline trace and prints the
// per-stage p50/p99 decomposition across all completed requests. A
// malformed trace, or a trace whose server-side wall exceeds the
// client-measured request latency, is a hard error: the decomposition
// must be consistent with the walls the replay observed.
func reportTraceStages(out io.Writer, outcomes []outcome) error {
	perStage := map[string][]time.Duration{}
	walls := make([]time.Duration, 0, len(outcomes))
	traced := 0
	for i, oc := range outcomes {
		if oc.err != nil || oc.trace == nil {
			continue
		}
		traced++
		if err := oc.trace.Validate(); err != nil {
			return fmt.Errorf("request %d: malformed trace %s: %w", i, oc.trace.ID, err)
		}
		wall := time.Duration(oc.trace.WallNs)
		if wall > oc.latency {
			return fmt.Errorf("request %d: trace %s wall %v exceeds the request latency %v",
				i, oc.trace.ID, wall, oc.latency)
		}
		walls = append(walls, wall)
		for stage, d := range stageDurations(oc.trace) {
			perStage[stage] = append(perStage[stage], d)
		}
	}
	if traced == 0 {
		return fmt.Errorf("-trace replay produced no inline traces")
	}

	fmt.Fprintf(out, "\nstage decomposition (%d traced requests, server-side spans):\n", traced)
	w := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  stage\tn\tp50\tp99")
	fmt.Fprintf(w, "  server_wall\t%d\t%s\t%s\n", len(walls), percentile(walls, 0.50), percentile(walls, 0.99))
	for _, stage := range stageOrder {
		ds := perStage[stage]
		if len(ds) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s\t%d\t%s\t%s\n", stage, len(ds), percentile(ds, 0.50), percentile(ds, 0.99))
	}
	return w.Flush()
}

// scrapeTraces pulls /debug/traces off the target and validates every
// captured span tree — the wire-level analogue of the serve-smoke
// assertion. Any malformed trace is a hard error.
func scrapeTraces(ctx context.Context, out io.Writer, addr, adminToken string) error {
	admin := httpserve.NewClient(addr, adminToken)
	defer admin.Close()
	tr, err := admin.Traces(ctx)
	if err != nil {
		return fmt.Errorf("/debug/traces scrape: %w", err)
	}
	checked := 0
	for _, ring := range [][]*obs.TraceData{tr.Recent, tr.Slow} {
		for _, td := range ring {
			if err := td.Validate(); err != nil {
				return fmt.Errorf("/debug/traces: malformed trace %s: %w", td.ID, err)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("/debug/traces returned no captured traces after a traced replay")
	}
	fmt.Fprintf(out, "traces: %d captured span trees scraped, all well-formed (sampled %d, captured %d)\n",
		checked, tr.Sampled, tr.Captured)
	return nil
}
