// Package shard partitions the register namespace across independent ABD
// replica groups. The paper's emulation is per-register — nothing couples
// two registers to the same majority quorum — so the keyspace can be split
// over many groups without touching the atomicity argument: every register
// still lives in exactly one group, operated on by the unmodified two-phase
// protocol, tolerating a minority of crashes *per group*.
//
// The package has two pieces:
//
//   - Ring: a deterministic consistent-hash ring (virtual nodes, pluggable
//     hash) mapping register names to group indexes,
//   - Store: the router; it owns one core.Client per group, forwards each
//     operation to the owning group, and merges the cross-cutting layers
//     (metrics, latency histograms, shard-tagged trace spans) so a sharded
//     deployment observes like a single one.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// HashFunc hashes a register name onto the ring's key space. It must be a
// pure function: the register→group map is recomputed independently by every
// Store and must agree across processes and restarts.
type HashFunc func(string) uint64

// FNV1a is the default HashFunc: 64-bit FNV-1a over the name's bytes.
// It is stable across Go versions and platforms (unlike maphash), which is
// what makes committed shard maps diffable.
func FNV1a(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// DefaultVirtualNodes is how many ring points each group gets on every
// Store's ring (and on NewRing's when vnodes < 1). 128 keeps the max/min
// load ratio across groups within a few percent for realistic register
// counts.
const DefaultVirtualNodes = 128

// mix64 is the splitmix64 finalizer, applied to every HashFunc output
// before it lands on the ring. FNV-1a (and most string hashes) is visibly
// non-uniform over short structured keys like "g2#17" or "key-9" — measured
// skew up to 2.4x between groups — and a bijective avalanche pass restores
// uniformity without weakening determinism for any pluggable hash.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Ring is an immutable consistent-hash ring: groups * vnodes points, each
// point the hash of a derived key "g<group>#<replica>", sorted; a register
// belongs to the group owning the first point at or after its hash. The
// construction is a pure function of (groups, vnodes, hash), so two Rings
// built with the same parameters produce the identical register→group map —
// the invariant the rebalancing tests pin.
type Ring struct {
	hash   HashFunc
	groups int
	points []ringPoint
}

type ringPoint struct {
	h     uint64
	group int
}

// NewRing builds a ring over the given number of groups.
func NewRing(groups, vnodes int, hash HashFunc) (*Ring, error) {
	if groups < 1 {
		return nil, fmt.Errorf("shard: ring needs >= 1 group, got %d", groups)
	}
	if vnodes < 1 {
		vnodes = DefaultVirtualNodes
	}
	if hash == nil {
		hash = FNV1a
	}
	r := &Ring{hash: hash, groups: groups, points: make([]ringPoint, 0, groups*vnodes)}
	for g := 0; g < groups; g++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: mix64(hash(fmt.Sprintf("g%d#%d", g, v))), group: g})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Colliding points order by group so ownership stays deterministic
		// regardless of sort stability.
		return r.points[i].group < r.points[j].group
	})
	return r, nil
}

// Groups returns the number of groups on the ring.
func (r *Ring) Groups() int { return r.groups }

// Lookup returns the group owning the register.
func (r *Ring) Lookup(reg string) int {
	h := mix64(r.hash(reg))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap: the ring is circular
	}
	return r.points[i].group
}
