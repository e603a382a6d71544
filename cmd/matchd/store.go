// Durable-store integration of the daemon: recovery at boot, periodic
// log compaction, shutdown compaction, and the /metrics provider.

package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/httpserve"
	"repro/internal/matchers/clustered"
	"repro/internal/store"
	"repro/match"
)

// recoveryInfo records how one tenant's boot-time recovery went, for
// the log line and the /metrics gauges. The map is written during boot
// only and read-only afterwards.
type recoveryInfo struct {
	seconds       float64
	version       uint64
	indexRestored bool
	memoSeeded    int
}

// storeRuntime bundles the daemon's durable-store state.
type storeRuntime struct {
	st          *store.Store
	recovered   map[string]recoveryInfo
	metricName  string
	memoSlice   int // warm-memo entries persisted per compaction (0: none)
	compactWhen int // diff-record threshold of the periodic compactor
}

// openStoreRuntime opens (creating if absent) the durable store and
// wraps it with the daemon's recovery/compaction policy.
func openStoreRuntime(dir string, sync bool, memoSlice, compactWhen int) (*storeRuntime, error) {
	st, err := store.Open(dir, store.Options{Sync: sync})
	if err != nil {
		return nil, err
	}
	return &storeRuntime{
		st:          st,
		recovered:   map[string]recoveryInfo{},
		metricName:  engine.New(nil).MetricName(),
		memoSlice:   memoSlice,
		compactWhen: compactWhen,
	}, nil
}

// recoverTenants loads every tenant the store holds, eagerly: each log
// is replayed to its exact committed version, the cluster index is
// rehydrated (with the nearest-medoid parity self-check) and the warm
// memo slice seeded (with spot re-computation) when their hints
// validate, and the tenant is registered with a factory serving the
// recovered snapshot. A log that cannot produce a state (no base, bad
// header) is reported with its typed error and NOT served — the
// caller may still register the tenant from a corpus file.
func (sr *storeRuntime) recoverTenants(srv *match.Server, out io.Writer) (map[string]bool, error) {
	names, err := sr.st.Tenants()
	if err != nil {
		return nil, err
	}
	recovered := make(map[string]bool, len(names))
	for _, name := range names {
		t0 := time.Now()
		ts, err := sr.st.Tenant(name).Load()
		if err != nil {
			fmt.Fprintf(out, "matchd: store: tenant %q unrecoverable: %v\n", name, err)
			continue
		}
		if ts.Report.TailError != nil {
			fmt.Fprintf(out, "matchd: store: tenant %q: dropped %d damaged tail bytes (%v), recovered version %d\n",
				name, ts.Report.DroppedBytes, ts.Report.TailError, ts.Version())
		}

		// The scorer the tenant's whole serving stack will share; hints
		// are validated against it so nothing persisted under another
		// metric can serve.
		memo := engine.New(nil)
		info := recoveryInfo{version: ts.Version()}
		if len(ts.Memo) > 0 && ts.MemoMetric == memo.MetricName() {
			if err := memo.Seed(ts.Memo, 32); err == nil {
				info.memoSeeded = len(ts.Memo)
			}
		}
		var ix *clustered.Index
		if ts.Index != nil && ts.IndexMetric == memo.MetricName() {
			if restored, err := clustered.Restore(ts.Snapshot.Repository(), *ts.Index, memo); err == nil {
				ix = restored
				info.indexRestored = true
			} else {
				fmt.Fprintf(out, "matchd: store: tenant %q: index hint rejected (%v), will re-cluster lazily\n", name, err)
			}
		}

		snap, handle := ts.Snapshot, sr.st.Tenant(name)
		opts := []match.Option{match.WithScorer(memo), match.WithStore(handle)}
		if ix != nil {
			opts = append(opts, match.WithRestoredIndex(ix))
		}
		if err := srv.Register(name, func() (*match.Service, error) {
			return match.NewServiceFromSnapshot(snap, opts...)
		}); err != nil {
			return nil, fmt.Errorf("tenant %s: %w", name, err)
		}
		info.seconds = time.Since(t0).Seconds()
		sr.recovered[name] = info
		recovered[name] = true
	}
	return recovered, nil
}

// compactTenant compacts one tenant's log. A resident tenant compacts
// from its live service (carrying the built index state and a bounded
// warm memo slice); a non-resident one compacts from the log itself.
func (sr *storeRuntime) compactTenant(srv *match.Server, name string) error {
	ten := sr.st.Tenant(name)
	tstats, err := srv.TenantStats(name)
	if err != nil || !tstats.Resident {
		return ten.CompactSelf()
	}
	svc, err := srv.Service(name)
	if err != nil {
		return err
	}
	return sr.compactService(svc, name)
}

// compactService compacts name's log from a live service handle.
func (sr *storeRuntime) compactService(svc *match.Service, name string) error {
	var ixState *clustered.State
	if st, ok := svc.IndexState(); ok {
		ixState = st
	}
	var entries []engine.MemoEntry
	if sr.memoSlice > 0 {
		if memo, ok := svc.Scorer().(*engine.Memo); ok {
			entries = memo.Entries(sr.memoSlice)
		}
	}
	return sr.st.Tenant(name).Compact(svc.Version(), svc.Repository(),
		sr.metricName, ixState, sr.metricName, entries)
}

// compactor periodically compacts every tenant whose log accumulated
// at least compactWhen diff records, until ctx ends.
func (sr *storeRuntime) compactor(ctx context.Context, srv *match.Server, interval time.Duration, out io.Writer) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		names, err := sr.st.Tenants()
		if err != nil {
			continue
		}
		for _, name := range names {
			stats, err := sr.st.Tenant(name).Stats()
			if err != nil || stats.DiffRecords < sr.compactWhen {
				continue
			}
			if err := sr.compactTenant(srv, name); err != nil {
				fmt.Fprintf(out, "matchd: store: compacting tenant %q: %v\n", name, err)
			}
		}
	}
}

// compactTarget is one resident tenant captured for shutdown
// compaction before the matching server closes.
type compactTarget struct {
	name string
	svc  *match.Service
}

// residentTargets snapshots the resident tenants' service handles.
// Collected while the server still accepts lookups; the handles stay
// usable after Server.Close.
func residentTargets(srv *match.Server) []compactTarget {
	var out []compactTarget
	for _, name := range srv.Tenants() {
		ts, err := srv.TenantStats(name)
		if err != nil || !ts.Resident {
			continue
		}
		svc, err := srv.Service(name)
		if err != nil {
			continue
		}
		out = append(out, compactTarget{name: name, svc: svc})
	}
	return out
}

// shutdownCompact rewrites every captured tenant's log as a fresh base
// (plus warm index/memo hints), so the next boot recovers with zero
// diff replay and a warm cluster index.
func (sr *storeRuntime) shutdownCompact(targets []compactTarget, out io.Writer) {
	for _, tgt := range targets {
		if err := sr.compactService(tgt.svc, tgt.name); err != nil {
			fmt.Fprintf(out, "matchd: store: shutdown compact of tenant %q: %v\n", tgt.name, err)
		}
	}
}

// metricsProvider builds the /metrics StoreMetrics callback: the
// store's committed per-tenant shape merged with this boot's recovery
// info.
func (sr *storeRuntime) metricsProvider() func() []httpserve.StoreTenantMetrics {
	return func() []httpserve.StoreTenantMetrics {
		names, err := sr.st.Tenants()
		if err != nil {
			return nil
		}
		out := make([]httpserve.StoreTenantMetrics, 0, len(names))
		for _, name := range names {
			stats, err := sr.st.Tenant(name).Stats()
			if err != nil {
				continue
			}
			m := httpserve.StoreTenantMetrics{
				Tenant:             name,
				SizeBytes:          stats.SizeBytes,
				LogRecords:         stats.Records,
				DiffRecords:        stats.DiffRecords,
				TailVersion:        stats.TailVersion,
				LastCompactionUnix: stats.LastCompactionUnix,
				GapHeals:           stats.GapHeals,
			}
			if ri, ok := sr.recovered[name]; ok {
				m.RecoverySeconds = ri.seconds
				m.RecoveredVersion = ri.version
				m.IndexRestored = ri.indexRestored
			}
			out = append(out, m)
		}
		return out
	}
}
