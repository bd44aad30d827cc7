package experiments

import (
	"context"
	"fmt"
	"time"

	abd "repro"
	"repro/internal/core"
)

// F7Ablations quantifies two design choices DESIGN.md calls out:
//
//  1. Phase fanout — the paper broadcasts every phase to all n replicas and
//     waits for a quorum; the default client asks one minimal quorum per
//     query instead. That saves messages without coupling liveness to the
//     targets: a crashed target costs one retransmit interval, after which
//     the phase widens and later queries need no reply from the silent
//     replica (they still ask it, to see it recover). The
//     rows are multi-writer writes (query + update), so the query's fanout
//     shows; the table shows messages/op against availability under one
//     crash.
//  2. Retransmission — the model assumes reliable channels; on a lossy
//     substrate, phase retransmission restores liveness at a modest
//     message overhead.
func F7Ablations(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "F7",
		Title:   "ablations: phase fanout and retransmission (n=5)",
		Claim:   "asking one quorum saves the extra query messages and stays available under a crash; retransmission restores liveness on lossy links",
		Headers: []string{"config", "msgs/op", "ops ok (healthy)", "ops ok (1 crash)", "retransmits"},
	}
	ops := o.scale(40, 10)

	type config struct {
		name string
		opts []core.ClientOption
		drop float64
	}
	configs := []config{
		{"fanout=all (paper)", []core.ClientOption{core.WithRetransmit(0, 0)}, 0}, // reliable channels: every phase asks all
		{"default", nil, 0},
		{"25% loss, no retransmit", []core.ClientOption{core.WithSingleWriter(), core.WithRetransmit(0, 0)}, 0.25},
		{"25% loss + retransmit", []core.ClientOption{core.WithSingleWriter(), core.WithRetransmit(5*time.Millisecond, 5*time.Millisecond)}, 0.25},
	}

	for _, cfg := range configs {
		healthy, msgsPerOp, retransmits := runAblation(o, cfg.opts, cfg.drop, ops, false)
		crashed, _, _ := runAblation(o, cfg.opts, cfg.drop, ops, true)
		tbl.AddRow(cfg.name,
			fmt.Sprintf("%.1f", msgsPerOp),
			fmt.Sprintf("%d/%d", healthy, ops),
			fmt.Sprintf("%d/%d", crashed, ops),
			fmt.Sprintf("%d", retransmits))
	}
	tbl.Notes = append(tbl.Notes,
		"each op gets a 250ms deadline; 'ops ok' counts completions",
		"default asks a rotating minimal quorum (3 of 5); the first query to target the crashed replica waits one retransmit interval, widens, and marks it silent, so later queries complete without it")
	return tbl, nil
}

func runAblation(o Options, opts []core.ClientOption, drop float64, ops int, crashOne bool) (ok int, msgsPerOp float64, retransmits int64) {
	c := o.cluster(5, abd.WithDropProbability(drop))
	defer c.Close()
	cli := c.Client(opts...)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Prime while healthy so reads have something to find. Under loss
	// without retransmission even the prime can fail — bound it like any
	// other op and move on; that failure mode is part of what the
	// experiment shows.
	pctx, pcancel := context.WithTimeout(ctx, 250*time.Millisecond)
	_ = cli.Write(pctx, "x", []byte("v0"))
	pcancel()
	if crashOne {
		c.Crash(0)
	}

	for i := 0; i < ops; i++ {
		octx, ocancel := context.WithTimeout(ctx, 250*time.Millisecond)
		err := cli.Write(octx, "x", []byte("v"))
		ocancel()
		if err == nil {
			ok++
		}
	}
	settle()
	m := cli.Metrics()
	st := c.NetStats()
	return ok, float64(st.Sent) / float64(ops+1), m.Retransmits
}
