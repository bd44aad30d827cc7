package health

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestTopKExactUnderCapacity(t *testing.T) {
	tk := NewTopK(8)
	for i := 0; i < 5; i++ {
		tk.OfferN(fmt.Sprintf("k%d", i), int64(i+1))
	}
	snap := tk.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("got %d entries, want 5", len(snap))
	}
	if snap[0].Key != "k4" || snap[0].Count != 5 || snap[0].Err != 0 {
		t.Fatalf("head = %+v, want k4/5/0", snap[0])
	}
	if tk.Total() != 1+2+3+4+5 {
		t.Fatalf("total = %d", tk.Total())
	}
	for _, hk := range snap {
		if hk.Err != 0 {
			t.Fatalf("under capacity Err must be 0: %+v", hk)
		}
	}
}

func TestTopKEvictionKeepsHeavyHitters(t *testing.T) {
	tk := NewTopK(4)
	// A heavy key with frequency far above total/capacity must survive any
	// interleaving with one-off keys.
	for i := 0; i < 400; i++ {
		tk.Offer("hot")
		tk.Offer(fmt.Sprintf("cold%d", i))
	}
	snap := tk.Snapshot()
	if snap[0].Key != "hot" {
		t.Fatalf("head = %+v, want hot", snap[0])
	}
	// Guaranteed lower bound: Count-Err never exceeds the true count, and
	// the true count is within [Count-Err, Count].
	if snap[0].Count-snap[0].Err > 400 {
		t.Fatalf("lower bound %d exceeds true count 400", snap[0].Count-snap[0].Err)
	}
	if snap[0].Count < 400 {
		t.Fatalf("space-saving estimate %d must not undercount true 400", snap[0].Count)
	}
}

// TestTopKZipfRecallAgainstExactCounts scores the sketch against exact
// counts under zipfian draws: at every skew the top 10 recall at least 9 of
// the true top 10, and every reported entry brackets its exact count
// (Count >= exact, Count-Err <= exact). The split case deals the draws over
// several sketches and scores their MergeHotKeys merge, the cross-store
// view a fleet dashboard shows.
func TestTopKZipfRecallAgainstExactCounts(t *testing.T) {
	const (
		keys  = 1000
		draws = 200_000
		cap   = 64
	)
	for _, tc := range []struct {
		skew     float64
		sketches int
	}{{1.07, 1}, {1.2, 1}, {1.5, 1}, {1.2, 4}} {
		t.Run(fmt.Sprintf("s=%.2f/sketches=%d", tc.skew, tc.sketches), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			zipf := rand.NewZipf(rng, tc.skew, 1, keys-1)
			tks := make([]*TopK, tc.sketches)
			for i := range tks {
				tks[i] = NewTopK(cap)
			}
			exact := make(map[string]int64)
			for i := 0; i < draws; i++ {
				k := fmt.Sprintf("reg-%d", zipf.Uint64())
				tks[i%len(tks)].Offer(k)
				exact[k]++
			}

			truth := make([]string, 0, len(exact))
			for k := range exact {
				truth = append(truth, k)
			}
			sort.Slice(truth, func(i, j int) bool {
				if exact[truth[i]] != exact[truth[j]] {
					return exact[truth[i]] > exact[truth[j]]
				}
				return truth[i] < truth[j]
			})
			top10 := make(map[string]bool, 10)
			for _, k := range truth[:10] {
				top10[k] = true
			}

			snaps := make([][]HotKey, len(tks))
			var total int64
			for i, tk := range tks {
				snaps[i] = tk.Snapshot()
				total += tk.Total()
			}
			hits := 0
			for _, hk := range MergeHotKeys(10, snaps...) {
				if top10[hk.Key] {
					hits++
				}
				if hk.Count < exact[hk.Key] {
					t.Fatalf("sketch undercounts %s: %d < true %d", hk.Key, hk.Count, exact[hk.Key])
				}
				if hk.Count-hk.Err > exact[hk.Key] {
					t.Fatalf("lower bound violated for %s: %d-%d > %d",
						hk.Key, hk.Count, hk.Err, exact[hk.Key])
				}
			}
			if hits < 9 {
				t.Fatalf("recall@10 = %d/10, want >= 9", hits)
			}
			if total != draws {
				t.Fatalf("total = %d, want %d", total, draws)
			}
		})
	}
}
func TestMergeHotKeys(t *testing.T) {
	a := []HotKey{{Key: "x", Count: 10}, {Key: "y", Count: 5, Err: 1}}
	b := []HotKey{{Key: "y", Count: 7, Err: 2}, {Key: "z", Count: 3}}
	got := MergeHotKeys(2, a, b)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0] != (HotKey{Key: "y", Count: 12, Err: 3}) {
		t.Fatalf("head = %+v", got[0])
	}
	if got[1] != (HotKey{Key: "x", Count: 10}) {
		t.Fatalf("second = %+v", got[1])
	}
	if all := MergeHotKeys(0, a, b); len(all) != 3 {
		t.Fatalf("k<=0 must keep everything, got %d", len(all))
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(16)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk.Offer(fmt.Sprintf("k%d", (g*7+i)%24))
			}
		}(g)
	}
	wg.Wait()
	if tk.Total() != goroutines*per {
		t.Fatalf("total = %d, want %d", tk.Total(), goroutines*per)
	}
}
