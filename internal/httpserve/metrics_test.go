package httpserve

import (
	"bufio"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseExposition validates Prometheus text format line by line and
// returns the sample values keyed by "name{labels}". It fails the test
// on any malformed line, out-of-order family, or sample without a
// preceding TYPE.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	helped := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		l := sc.Text()
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, "# HELP ") {
			f := strings.SplitN(strings.TrimPrefix(l, "# HELP "), " ", 2)
			if len(f) != 2 || f[0] == "" || f[1] == "" {
				t.Fatalf("line %d: malformed HELP: %q", line, l)
			}
			helped[f[0]] = true
			continue
		}
		if strings.HasPrefix(l, "# TYPE ") {
			f := strings.Fields(strings.TrimPrefix(l, "# TYPE "))
			if len(f) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", line, l)
			}
			if f[1] != "counter" && f[1] != "gauge" && f[1] != "histogram" {
				t.Fatalf("line %d: unknown type %q", line, f[1])
			}
			if !helped[f[0]] {
				t.Fatalf("line %d: TYPE for %s without HELP", line, f[0])
			}
			typed[f[0]] = f[1]
			continue
		}
		if strings.HasPrefix(l, "#") {
			t.Fatalf("line %d: unknown comment form: %q", line, l)
		}
		sp := strings.LastIndexByte(l, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value: %q", line, l)
		}
		series, valStr := l[:sp], l[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", line, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unbalanced label braces: %q", line, l)
			}
			name = series[:i]
		}
		if _, ok := typed[name]; !ok {
			// Histogram families expose their samples under the
			// _bucket/_sum/_count suffixes of the declared family name.
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if strings.HasSuffix(name, suf) {
					base = strings.TrimSuffix(name, suf)
					break
				}
			}
			if typed[base] != "histogram" {
				t.Fatalf("line %d: sample %s without a TYPE header", line, name)
			}
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", line, series)
		}
		samples[series] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}
	return samples
}

// TestMetricsEndpoint scrapes /metrics under concurrent traffic,
// asserts the exposition parses, the expected families are present,
// and every counter is monotone between two scrapes.
func TestMetricsEndpoint(t *testing.T) {
	fleet := testFleet(t, 23, 2, 2, 12)
	_, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()
	ctx := context.Background()

	// First traffic wave: every tenant and personal, mixed specs, plus
	// some guaranteed error responses so the code label space is
	// populated.
	wave := func() {
		var wg sync.WaitGroup
		for _, tn := range fleet {
			for _, p := range tn.Personals() {
				wg.Add(1)
				go func(tn string, req *MatchRequest) {
					defer wg.Done()
					if _, err := cl.Match(ctx, tn, req); err != nil {
						t.Error(err)
					}
				}(tn.Name, wireRequest(p, 0.4, "beam:8"))
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = cl.Match(ctx, "ghost", wireRequest(fleet[0].Personals()[0], 0.4, ""))
		}()
		wg.Wait()
	}
	wave()

	text1, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first := parseExposition(t, text1)

	for _, want := range []string{
		"matchd_http_in_flight",
		`matchd_http_requests_total{route="match",code="200"}`,
		`matchd_http_requests_total{route="match",code="404"}`,
		`matchd_http_request_seconds_total{route="match"}`,
		"matchd_match_requests_total",
		"matchd_answers_total",
		"matchd_server_workers",
		"matchd_server_accepted_total",
		fmt.Sprintf("matchd_tenant_version{tenant=%q}", fleet[0].Name),
		fmt.Sprintf("matchd_tenant_cache_misses_total{tenant=%q}", fleet[0].Name),
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("series %s missing from the exposition", want)
		}
	}
	if first["matchd_match_requests_total"] == 0 {
		t.Error("no match requests counted")
	}

	// Second wave, then re-scrape: every *_total counter the first
	// scrape reported must not decrease.
	wave()
	text2, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second := parseExposition(t, text2)
	for series, v1 := range first {
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			name = series[:i]
		}
		if !strings.HasSuffix(name, "_total") {
			continue
		}
		v2, ok := second[series]
		if !ok {
			t.Errorf("counter series %s disappeared between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %g -> %g", series, v1, v2)
		}
	}
	if second["matchd_match_requests_total"] <= first["matchd_match_requests_total"] {
		t.Error("second traffic wave did not advance matchd_match_requests_total")
	}
}

// histogramSeries collects one histogram series from parsed samples:
// the le → cumulative-count buckets (excluding +Inf) in ascending le
// order, plus the +Inf bucket, _sum, and _count values.
func histogramSeries(t *testing.T, samples map[string]float64, family, labels string) (les []float64, cums []float64, inf, sum, count float64) {
	t.Helper()
	prefix := family + "_bucket{" + labels + `,le="`
	for series, v := range samples {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(series, prefix), `"}`)
		if le == "+Inf" {
			inf = v
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("series %s: bad le %q: %v", series, le, err)
		}
		// Insertion sort by le: bucket counts stay paired with bounds.
		i := len(les)
		for i > 0 && les[i-1] > b {
			i--
		}
		les = append(les[:i], append([]float64{b}, les[i:]...)...)
		cums = append(cums[:i], append([]float64{v}, cums[i:]...)...)
	}
	sum = samples[family+"_sum{"+labels+"}"]
	count = samples[family+"_count{"+labels+"}"]
	return
}

// TestMetricsHistogramBuckets: the histogram families expose cumulative
// le-buckets that are monotone, end in a +Inf bucket equal to _count,
// and count every served request.
func TestMetricsHistogramBuckets(t *testing.T) {
	fleet := testFleet(t, 29, 2, 2, 12)
	_, ts := newTestServer(t, fleet, Config{})
	cl := NewClient(ts.URL, "")
	defer cl.Close()
	ctx := context.Background()

	const n = 6
	for i := 0; i < n; i++ {
		if _, err := cl.Match(ctx, fleet[0].Name, wireRequest(fleet[0].Personals()[0], 0.4, "beam:8")); err != nil {
			t.Fatal(err)
		}
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, text)

	check := func(family, labels string, wantCount float64) {
		t.Helper()
		les, cums, inf, sum, count := histogramSeries(t, samples, family, labels)
		if len(les) == 0 {
			t.Fatalf("%s{%s}: no le buckets in the exposition", family, labels)
		}
		prev := 0.0
		for i, c := range cums {
			if c < prev {
				t.Errorf("%s{%s}: cumulative count decreased at le=%g", family, labels, les[i])
			}
			prev = c
		}
		if inf != count {
			t.Errorf("%s{%s}: +Inf bucket %g != _count %g", family, labels, inf, count)
		}
		if inf < prev {
			t.Errorf("%s{%s}: +Inf bucket %g below last finite bucket %g", family, labels, inf, prev)
		}
		if wantCount > 0 && count != wantCount {
			t.Errorf("%s{%s}: _count = %g, want %g", family, labels, count, wantCount)
		}
		if count > 0 && sum < 0 {
			t.Errorf("%s{%s}: negative _sum %g", family, labels, sum)
		}
	}
	check("matchd_http_request_duration_seconds", `route="match"`, n)
	check("matchd_stage_duration_seconds", `stage="search"`, n)
	check("matchd_stage_duration_seconds", `stage="queue_wait"`, n)
	check("matchd_stage_duration_seconds", `stage="session_build"`, n)
}

// TestMetricsLabelEscaping: tenant names with quotes, backslashes, and
// newlines must render as valid exposition text.
func TestMetricsLabelEscaping(t *testing.T) {
	if escapeLabel(`a"b\c`+"\n") != `a\"b\\c\n` {
		t.Fatalf("escapeLabel: got %q", escapeLabel(`a"b\c`+"\n"))
	}
	fleet := testFleet(t, 24, 1, 1, 8)
	srv, ts := newTestServer(t, fleet, Config{})
	weird := `ten"ant\x`
	if err := srv.AddTenant(weird, fleet[0].Repo()); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(ts.URL, "")
	defer cl.Close()
	text, err := cl.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := parseExposition(t, text)
	series := fmt.Sprintf("matchd_tenant_version{tenant=\"%s\"}", escapeLabel(weird))
	if _, ok := got[series]; !ok {
		t.Fatalf("escaped tenant series %s missing", series)
	}
}
