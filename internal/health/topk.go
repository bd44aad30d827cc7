// Package health is the emulation's live introspection layer: a
// space-saving hot-key sketch, replica lag watermarks derived from the
// quorum's confirmed tags, and multi-window SLO burn-rate tracking. It
// consumes the obs layer's counters and histograms in-process and produces
// the queryable health surface served by /status and rendered by abd-cli top.
//
// Like obs, the package depends on no protocol package, so core, shard,
// nemesis, and the binaries can all use it without import cycles.
package health

import (
	"sort"
	"sync"
)

// DefaultTopKCapacity is the sketch size used when a capacity of 0 is
// requested: large enough that a zipfian head fits with room for churn,
// small enough that a scan-on-evict stays cheap.
const DefaultTopKCapacity = 32

// HotKey is one entry of a top-k snapshot. Count is the sketch's estimate
// of how many times the key was offered; Err bounds its overestimation, so
// Count-Err is a guaranteed lower bound on the true count. Entries that
// were tracked from their first offer have Err == 0 and an exact Count.
type HotKey struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
}

// TopK is a space-saving top-k frequency sketch (Metwally et al.): at most
// capacity keys are tracked; offering an untracked key while full evicts
// the minimum-count entry and credits the newcomer with the evicted count
// plus one, recording that count as the newcomer's error bound. Any key
// whose true frequency exceeds total/capacity is guaranteed to be present.
// The zero value is not ready; use NewTopK. Safe for concurrent use.
type TopK struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*topkEntry
	total   int64
}

type topkEntry struct {
	count int64
	err   int64
}

// NewTopK creates a sketch tracking at most capacity keys
// (DefaultTopKCapacity if capacity <= 0).
func NewTopK(capacity int) *TopK {
	if capacity <= 0 {
		capacity = DefaultTopKCapacity
	}
	return &TopK{cap: capacity, entries: make(map[string]*topkEntry, capacity)}
}

// Offer counts one occurrence of key.
func (t *TopK) Offer(key string) { t.OfferN(key, 1) }

// OfferN counts n occurrences of key (n <= 0 is a no-op).
func (t *TopK) OfferN(key string, n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total += n
	if e, ok := t.entries[key]; ok {
		e.count += n
		return
	}
	if len(t.entries) < t.cap {
		t.entries[key] = &topkEntry{count: n}
		return
	}
	// Full: evict the minimum and inherit its count as the error bound.
	var minKey string
	var minEnt *topkEntry
	for k, e := range t.entries {
		if minEnt == nil || e.count < minEnt.count {
			minKey, minEnt = k, e
		}
	}
	delete(t.entries, minKey)
	t.entries[key] = &topkEntry{count: minEnt.count + n, err: minEnt.count}
}

// Total returns how many offers the sketch has absorbed (exact).
func (t *TopK) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Snapshot returns the tracked keys ordered by descending estimated count
// (ties broken by key, so equal sketches snapshot identically).
func (t *TopK) Snapshot() []HotKey {
	t.mu.Lock()
	out := make([]HotKey, 0, len(t.entries))
	for k, e := range t.entries {
		out = append(out, HotKey{Key: k, Count: e.count, Err: e.err})
	}
	t.mu.Unlock()
	sortHotKeys(out)
	return out
}

// Top returns the k highest-count entries of the snapshot.
func (t *TopK) Top(k int) []HotKey {
	s := t.Snapshot()
	if k > 0 && len(s) > k {
		s = s[:k]
	}
	return s
}

func sortHotKeys(hks []HotKey) {
	sort.Slice(hks, func(i, j int) bool {
		if hks[i].Count != hks[j].Count {
			return hks[i].Count > hks[j].Count
		}
		return hks[i].Key < hks[j].Key
	})
}

// MergeHotKeys combines per-sketch snapshots into one top-k list by
// summing counts (and error bounds) of matching keys across lists, then
// keeping the k largest. Summing is the standard space-saving merge: each
// per-list estimate overcounts by at most its Err, so the summed Err still
// bounds the summed overcount. k <= 0 keeps everything.
func MergeHotKeys(k int, lists ...[]HotKey) []HotKey {
	merged := make(map[string]HotKey)
	for _, list := range lists {
		for _, hk := range list {
			m := merged[hk.Key]
			m.Key = hk.Key
			m.Count += hk.Count
			m.Err += hk.Err
			merged[hk.Key] = m
		}
	}
	out := make([]HotKey, 0, len(merged))
	for _, hk := range merged {
		out = append(out, hk)
	}
	sortHotKeys(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
