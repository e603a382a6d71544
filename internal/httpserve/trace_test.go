package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes slog
// handlers perform.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// traceConfig returns a Config with an always-sample tracer and an
// admin token so /debug/traces is reachable.
func traceConfig(rate float64) Config {
	return Config{
		Tracer: obs.New(obs.Config{SampleRate: rate, Slow: time.Hour}),
		Auth:   &AuthConfig{AdminTokens: []string{"admin"}},
	}
}

// spanNames collects the set of span names of a trace.
func spanNames(td *obs.TraceData) map[string]int {
	out := map[string]int{}
	for _, sp := range td.Spans {
		out[sp.Name]++
	}
	return out
}

// TestTraceOptInRoundtrip: a request with trace:true gets the span
// breakdown inlined in the response, the trace id in the response
// header, and the full trace on /debug/traces afterwards.
func TestTraceOptInRoundtrip(t *testing.T) {
	fleet := testFleet(t, 31, 1, 1, 10)
	_, ts := newTestServer(t, fleet, traceConfig(0)) // sampling off: opt-in must force
	cl := NewClient(ts.URL, "admin")
	defer cl.Close()
	ctx := context.Background()

	req := wireRequest(fleet[0].Personals()[0], 0.4, "beam:8")
	req.Trace = true
	res, err := cl.Match(ctx, fleet[0].Name, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace:true response carries no inline trace")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	names := spanNames(res.Trace)
	for _, want := range []string{"decode", "queue_wait", "request", "session_build", "cost_tables", "search"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from inline trace (got %v)", want, names)
		}
	}
	if res.Stats.SessionBuildNs <= 0 {
		t.Error("wire stats carry no session_build wall")
	}

	// The capture ring must hold the same trace, with the id the
	// response reported.
	tr, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Captured == 0 || len(tr.Recent) == 0 {
		t.Fatalf("no captured traces after a forced trace: %+v", tr)
	}
	found := false
	for _, td := range tr.Recent {
		if td.ID == res.Trace.ID {
			found = true
			if err := td.Validate(); err != nil {
				t.Error(err)
			}
			// The captured trace closed at middleware exit, so its wall
			// covers at least the inline export's.
			if td.WallNs < res.Trace.WallNs {
				t.Errorf("captured wall %d < inline wall %d", td.WallNs, res.Trace.WallNs)
			}
		}
	}
	if !found {
		t.Errorf("trace %s not in the recent ring", res.Trace.ID)
	}
}

// TestTraceInboundHeader: an inbound X-Match-Trace-Id forces a trace
// under that id and echoes it on the response.
func TestTraceInboundHeader(t *testing.T) {
	fleet := testFleet(t, 32, 1, 1, 8)
	_, ts := newTestServer(t, fleet, traceConfig(0))
	ctx := context.Background()

	body, err := json.Marshal(wireRequest(fleet[0].Personals()[0], 0.4, ""))
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/match/"+fleet[0].Name, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set(TraceHeader, "caller-trace-1")
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "caller-trace-1" {
		t.Fatalf("response trace id %q, want the inbound id", got)
	}

	cl := NewClient(ts.URL, "admin")
	defer cl.Close()
	tr, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, td := range tr.Recent {
		if td.ID == "caller-trace-1" {
			found = true
			if err := td.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
	if !found {
		t.Error("inbound-forced trace not captured")
	}
}

// TestTraceSampledEdge: with SampleRate 1 every request is traced at
// the edge even without opting in, and the trace id comes back in the
// header but not the body.
func TestTraceSampledEdge(t *testing.T) {
	fleet := testFleet(t, 33, 1, 1, 8)
	_, ts := newTestServer(t, fleet, traceConfig(1))
	cl := NewClient(ts.URL, "admin")
	defer cl.Close()
	ctx := context.Background()

	res, err := cl.Match(ctx, fleet[0].Name, wireRequest(fleet[0].Personals()[0], 0.4, ""))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("sampled (not opted-in) response must not inline the trace")
	}
	tr, err := cl.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Recent) == 0 {
		t.Fatal("sampled request not captured")
	}
	names := spanNames(tr.Recent[0])
	for _, want := range []string{"queue_wait", "request", "session_build", "search"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from sampled trace (got %v)", want, names)
		}
	}
}

// TestTracesEndpointAuth: /debug/traces refuses without an admin token.
func TestTracesEndpointAuth(t *testing.T) {
	fleet := testFleet(t, 34, 1, 1, 8)
	_, ts := newTestServer(t, fleet, traceConfig(1))
	cl := NewClient(ts.URL, "") // no token
	defer cl.Close()
	_, err := cl.Traces(context.Background())
	if err == nil {
		t.Fatal("unauthenticated /debug/traces must refuse")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnauthorized {
		t.Fatalf("want 401, got %v", err)
	}
}

// TestStructuredAccessLog: the slog access log carries trace id,
// tenant, route, status, and duration as structured attributes.
func TestStructuredAccessLog(t *testing.T) {
	fleet := testFleet(t, 35, 1, 1, 8)
	var buf syncBuffer
	cfg := traceConfig(1)
	cfg.Log = slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newTestServer(t, fleet, cfg)
	cl := NewClient(ts.URL, "admin")
	defer cl.Close()

	if _, err := cl.Match(context.Background(), fleet[0].Name, wireRequest(fleet[0].Personals()[0], 0.4, "")); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no access-log output")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.SplitN(line, "\n", 2)[0]), &rec); err != nil {
		t.Fatalf("access log is not JSON: %v\n%s", err, line)
	}
	if rec["route"] != "match" {
		t.Errorf("route = %v, want match", rec["route"])
	}
	if rec["status"] != float64(http.StatusOK) {
		t.Errorf("status = %v, want 200", rec["status"])
	}
	if rec["tenant"] != fleet[0].Name {
		t.Errorf("tenant = %v, want %s", rec["tenant"], fleet[0].Name)
	}
	if s, _ := rec["trace_id"].(string); s == "" {
		t.Error("access log missing trace_id")
	}
	if _, ok := rec["duration"]; !ok {
		t.Error("access log missing duration")
	}
}
