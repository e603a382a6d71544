package main

import (
	"strings"
	"testing"
)

func TestRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("load replay in -short mode")
	}
	var b strings.Builder
	err := run([]string{"-tenants", "2", "-personals", "2", "-schemas", "10",
		"-requests", "30", "-queue", "64"}, &b)
	if err != nil {
		t.Fatalf("matchload run: %v\noutput:\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"fleet:", "completed", "latency", "tenant000", "cacheHit%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("load replay in -short mode")
	}
	var b strings.Builder
	err := run([]string{"-tenants", "2", "-personals", "2", "-schemas", "10",
		"-requests", "24", "-queue", "64", "-compare", "-quiet"}, &b)
	if err != nil {
		t.Fatalf("matchload -compare: %v\noutput:\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{"sequential", "batched", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "tenant000") {
		t.Error("-quiet still printed the per-tenant table")
	}
}

func TestRunChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("load replay in -short mode")
	}
	var b strings.Builder
	// A paced replay long enough for the churner to land several
	// updates mid-flight; any in-flight failure fails the run.
	err := run([]string{"-tenants", "2", "-personals", "2", "-schemas", "10",
		"-requests", "40", "-rate", "150", "-queue", "64", "-churn-rate", "25", "-quiet"}, &b)
	if err != nil {
		t.Fatalf("matchload -churn-rate: %v\noutput:\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"churn:", "zero failures", "incremental update",
		"full rebuild", "post-update cache-hit recovery", "recoveryHit%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0 live updates") {
		t.Errorf("churner applied no updates:\n%s", out)
	}
}

func TestRunRateLimited(t *testing.T) {
	if testing.Short() {
		t.Skip("load replay in -short mode")
	}
	var b strings.Builder
	err := run([]string{"-tenants", "1", "-personals", "1", "-schemas", "8",
		"-requests", "10", "-rate", "200", "-quiet"}, &b)
	if err != nil {
		t.Fatalf("matchload -rate: %v\noutput:\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "offered 200 req/s") {
		t.Errorf("output missing offered rate:\n%s", b.String())
	}
	// A paced 10-request replay at 200/s spans ≥ 45ms of offered load,
	// so its completion throughput cannot plausibly exceed the rate by
	// much; the burst path in the other tests covers rate 0.
}

func TestRunBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-matchers", "quantum"}, &b); err == nil {
		t.Error("unknown matcher family should error")
	}
	if err := run([]string{"-requests", "0"}, &b); err == nil {
		t.Error("zero requests should error")
	}
	if err := run([]string{"-tenants", "0"}, &b); err == nil {
		t.Error("zero tenants should error")
	}
	if err := run([]string{"-nosuchflag"}, &b); err == nil {
		t.Error("unknown flag should error")
	}
}

func TestRunRemoteSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("load replay in -short mode")
	}
	var b strings.Builder
	err := run([]string{"-tenants", "2", "-personals", "2", "-schemas", "10",
		"-requests", "24", "-queue", "64", "-remote", "self"}, &b)
	if err != nil {
		t.Fatalf("matchload -remote self: %v\noutput:\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"in-process listener", "resident over the wire", "completed",
		"metrics: scraped", "wire overhead", "p50 overhead", "tenant000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRemoteFlagConflicts(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-remote", "self", "-compare"}, &b); err == nil {
		t.Error("-remote with -compare should error")
	}
	// Churning a live daemon needs the admin token; the self listener
	// generates one.
	if err := run([]string{"-remote", "127.0.0.1:1", "-churn-rate", "5"}, &b); err == nil {
		t.Error("remote churn without -remote-admin-token should error")
	}
}

// TestRunRemoteChurn drives the wire replay with live full-repository
// PUTs against the in-process listener: updates land (versions
// advance), queries never fail, and the overhead comparison is
// correctly skipped.
func TestRunRemoteChurn(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-tenants", "2", "-personals", "2", "-schemas", "10",
		"-requests", "30", "-rate", "150", "-queue", "64",
		"-remote", "self", "-churn-rate", "25", "-quiet"}, &b)
	if err != nil {
		t.Fatalf("remote churn run: %v\noutput:\n%s", err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"churn (wire):", "zero failures", "update RTT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "wire overhead") {
		t.Errorf("overhead comparison should be skipped under churn:\n%s", out)
	}
}
