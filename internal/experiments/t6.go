package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/types"
)

// T6Byzantine evaluates the masking-quorum extension (the Byzantine
// generalization of the paper's majorities, after Malkhi & Reiter): under a
// single actively lying replica, plain majority reads get corrupted, while
// WithByzantine(1) clients — masking quorums and f+1-vouched reads — return
// only genuine values, at the cost of larger quorums (4 of 5 instead of 3
// of 5).
func T6Byzantine(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T6",
		Title:   "Byzantine replica vs masking quorums (n=5, one liar)",
		Claim:   "masking quorums (size ⌈(n+2f+1)/2⌉, intersections ≥ 2f+1) mask up to f Byzantine replicas; plain majorities do not",
		Headers: []string{"attack", "protocol", "reads", "corrupted", "quorum size"},
	}
	reads := o.scale(60, 15)
	const n, f = 5, 1

	attacks := []struct {
		name string
		mode core.ByzMode
	}{
		{"fabricate-high-ts", core.ByzFabricate},
		{"report-stale", core.ByzStale},
		{"equivocate", core.ByzEquivocate},
		{"silent", core.ByzSilent},
	}
	protocols := []struct {
		name  string
		qsize int
		opts  []core.ClientOption
	}{
		{"majority", n/2 + 1, nil},
		{"masking(f=1)", quorum.NewMasking(n, f).QuorumSize(), []core.ClientOption{core.WithByzantine(f)}},
	}

	for _, atk := range attacks {
		for _, proto := range protocols {
			corrupted, err := runByzantineTrial(o, atk.mode, proto.opts, reads)
			if err != nil {
				return nil, fmt.Errorf("T6 %s/%s: %w", atk.name, proto.name, err)
			}
			tbl.AddRow(atk.name, proto.name, fmt.Sprintf("%d", reads),
				fmt.Sprintf("%d", corrupted), fmt.Sprintf("%d", proto.qsize))
		}
	}
	tbl.Notes = append(tbl.Notes,
		"corrupted = reads returning a value no writer ever wrote (or a stale value after a newer completed write)",
		"masking(f=1) = WithByzantine(1): requires n >= 4f+1; reads retry until a pair has f+1 identical reports, so at most f liars can never forge one",
		"majority rows cut the reader off from two honest replicas, so every read quorum contains the liar (a silent liar is in none, so there the reader keeps its links)")
	return tbl, nil
}

// byzLiar is the replica T6 turns into a liar.
const byzLiar types.NodeID = 2

// runByzantineTrial runs interleaved writes and reads against a 5-replica
// cluster whose replica byzLiar lies in the given mode, and counts corrupted
// reads. The liar is an honest replica whose outbound replies pass through
// a core.Liar installed as the network's interceptor, the adversary the
// nemesis harness runs over TCP.
func runByzantineTrial(o Options, mode core.ByzMode, opts []core.ClientOption, reads int) (int, error) {
	c := o.cluster(5)
	defer c.Close()
	liar := core.NewLiar(byzLiar, o.seed())
	liar.SetMode(mode)
	c.Net().SetInterceptor(byzLiar, liar.Intercept)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w := c.Client(append(opts, core.WithSingleWriter())...)
	r := c.Client(opts...)
	if r.ByzantineF() == 0 && mode != core.ByzSilent {
		// Plain majorities are 3 of 5: a reader that reaches only the liar
		// and two honest replicas has the liar in every quorum, so whether
		// the attack lands does not depend on the liar winning a race.
		c.Net().BlockLink(r.ID(), 3)
		c.Net().BlockLink(r.ID(), 4)
	}

	corrupted := 0
	for i := 0; i < reads; i++ {
		want := fmt.Sprintf("genuine-%d", i)
		if err := w.Write(ctx, "x", []byte(want)); err != nil {
			return 0, err
		}
		got, err := r.Read(ctx, "x")
		if err != nil {
			return 0, err
		}
		if string(got) != want {
			corrupted++
		}
	}
	return corrupted, nil
}
