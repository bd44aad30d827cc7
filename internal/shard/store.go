package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/types"
)

// Store is the sharded multi-group register store: a consistent-hash router
// that maps each register name to one replica group and forwards the
// operation to that group's client. Each group is an unchanged ABD instance
// — per-register atomicity and the f < n/2 resilience bound hold per group
// — so the Store as a whole is linearizable per register, which is all the
// register abstraction ever promised.
//
// Invariants (DESIGN.md §7): a register never spans groups, and the shard
// map is immutable for the Store's lifetime. Rebalancing therefore means
// building a *new* Store (a later reconfiguration PR); it never happens
// under a live one.
//
// A Store is safe for concurrent use. Close closes the group clients it
// owns.
type Store struct {
	ring   *Ring
	groups []*core.Client

	// Lazy SLO tracking (see Health): created on first use so stores that
	// never ask for health pay nothing.
	healthMu sync.Mutex
	tracker  *health.Tracker
}

// New builds a Store over one client per replica group, in group-index
// order. The Store takes ownership of the clients: Close closes them.
func New(groups []*core.Client) (*Store, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: store needs >= 1 group client")
	}
	for i, cli := range groups {
		if cli == nil {
			return nil, fmt.Errorf("shard: group %d client is nil", i)
		}
	}
	// One store, one read contract: a register's consistency behavior must
	// not depend on which group the ring hashes it to, so every group client
	// must run the same read mode.
	mode := groups[0].ReadMode()
	for i, cli := range groups[1:] {
		if m := cli.ReadMode(); m != mode {
			return nil, fmt.Errorf("shard: group %d read mode %d differs from group 0's %d", i+1, m, mode)
		}
	}
	ring, err := NewRing(len(groups), DefaultVirtualNodes, FNV1a)
	if err != nil {
		return nil, err
	}
	return &Store{ring: ring, groups: append([]*core.Client(nil), groups...)}, nil
}

// Shards returns the number of replica groups behind the store.
func (s *Store) Shards() int { return len(s.groups) }

// ReadMode returns the read mode shared by every group client
// (New rejects mixed-mode group sets, so one answer covers the store).
func (s *Store) ReadMode() core.ReadMode { return s.groups[0].ReadMode() }

// Shard returns the group index owning the register.
func (s *Store) Shard(reg string) int { return s.ring.Lookup(reg) }

// Group returns group i's client, for direct group-scoped access (repair
// tools, tests). The store still owns it.
func (s *Store) Group(i int) *core.Client { return s.groups[i] }

// Clients returns the group clients in group-index order (shared slice
// copy; the store still owns the clients).
func (s *Store) Clients() []*core.Client {
	return append([]*core.Client(nil), s.groups...)
}

// Read performs an atomic read of the register on its owning group.
func (s *Store) Read(ctx context.Context, reg string) (types.Value, error) {
	return s.groups[s.ring.Lookup(reg)].Read(ctx, reg)
}

// Write performs an atomic write of the register on its owning group.
func (s *Store) Write(ctx context.Context, reg string, val types.Value) error {
	return s.groups[s.ring.Lookup(reg)].Write(ctx, reg, val)
}

// Register returns a handle binding the store to one named register. The
// owning group is resolved once, here: the shard map is immutable.
func (s *Store) Register(name string) types.Register {
	return s.groups[s.ring.Lookup(name)].Register(name)
}

// Metrics merges the group clients' operation counters into one snapshot.
func (s *Store) Metrics() core.MetricsSnapshot { return core.Fleet(s.groups).Metrics() }

// GroupMetrics returns each group client's own counter snapshot, in group
// order — the per-shard load split.
func (s *Store) GroupMetrics() []core.MetricsSnapshot {
	out := make([]core.MetricsSnapshot, len(s.groups))
	for i, cli := range s.groups {
		out[i] = cli.Metrics()
	}
	return out
}

// Latency merges the group clients' latency histograms into one fleet-wide
// snapshot; the merge is exact up to the histograms' bucket resolution.
func (s *Store) Latency() core.LatencySnapshot { return core.Fleet(s.groups).Latency() }

// HotKeys merges the group clients' hot-key sketches into one cross-shard
// top-k list: the head keys of the whole keyspace, not of one group.
// k <= 0 keeps every tracked key.
func (s *Store) HotKeys(k int) []health.HotKey { return core.Fleet(s.groups).HotKeys(k) }

// SetSLO replaces the store's tracked objective (and resets the burn
// history). Without a call, Health tracks health.DefaultSLO.
func (s *Store) SetSLO(slo health.SLO) {
	s.healthMu.Lock()
	s.tracker = health.NewTracker(slo)
	s.healthMu.Unlock()
}

// Health returns the store's client-side health view over its group
// clients (core.Fleet.Health): merged hot keys, the SLO burn state and the
// Byzantine verdict. Each call ingests the current cumulative counters
// into the sliding windows, so poll it periodically; the first call only
// seeds the baseline. Replica-side lag needs replica access the store
// doesn't have — the Cluster facade and abd-cli top fill that in.
func (s *Store) Health() health.Status {
	s.healthMu.Lock()
	if s.tracker == nil {
		s.tracker = health.NewTracker(health.DefaultSLO())
	}
	tr := s.tracker
	s.healthMu.Unlock()

	st, _ := core.Fleet(s.groups).Health(tr, time.Now())
	return st
}

// Close closes every group client, failing their in-flight operations.
func (s *Store) Close() {
	for _, cli := range s.groups {
		cli.Close()
	}
}

var _ types.RW = (*Store)(nil)

// Tag wraps a tracer so every span it emits carries the group's 1-based
// shard tag (see obs.Span.Shard). Attach the wrapped tracer to a group's
// client (core.WithTracer) and replicas (core.WithReplicaTracer) so the
// whole group's spans can be split per shard offline. A nil tracer stays
// nil: tagging never turns tracing on.
func Tag(t obs.Tracer, group int) obs.Tracer {
	if t == nil {
		return nil
	}
	return tagTracer{inner: t, tag: group + 1}
}

type tagTracer struct {
	inner obs.Tracer
	tag   int
}

func (t tagTracer) Emit(s obs.Span) {
	s.Shard = t.tag
	t.inner.Emit(s)
}
