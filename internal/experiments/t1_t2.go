package experiments

import (
	"context"
	"fmt"
	"time"

	abd "repro"
	"repro/internal/core"
)

// settle lets in-flight acks and stragglers drain before reading counters.
func settle() { time.Sleep(20 * time.Millisecond) }

// T1MessageComplexity counts messages per operation exactly, on an
// instant-delivery network, and compares with the paper's analysis:
// single-writer write = 2n (n updates + n acks, one round trip),
// read = 4n (query round trip + write-back round trip),
// multi-writer write = 4n (query + update round trips),
// fast-path read = 2n in the quiescent case (the repliers already hold the
// pair at a write quorum, so the write-back is skipped). Those rows ask all
// n replicas per query, as the paper does: WithRetransmit(0, 0) is its
// reliable-channel model, under which every phase asks everyone. The default
// client's rows ask one majority, q = n/2+1, per query: 2q+2n for the
// two-phase read and the multi-writer write, 2q for the fast path.
func T1MessageComplexity(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "T1",
		Title:   "message complexity per operation",
		Claim:   "SWMR write: 2n msgs (1 round trip); read: 4n (2 RTs); MWMR write: 4n; fast-path read: 2n; one-quorum queries: 2q+2n, 2q",
		Headers: []string{"n", "operation", "msgs/op", "expected", "ok"},
	}
	ops := o.scale(200, 30)

	for _, n := range []int{3, 5, 7, 9} {
		type variant struct {
			name     string
			expected int
			opts     []core.ClientOption
			run      func(ctx context.Context, cli *core.Client) error
			prime    bool // run one untimed op first
		}
		write := func(ctx context.Context, cli *core.Client) error {
			return cli.Write(ctx, "x", []byte("v"))
		}
		read := func(ctx context.Context, cli *core.Client) error {
			_, err := cli.Read(ctx, "x")
			return err
		}
		all := core.WithRetransmit(0, 0) // the paper's reliable channels: every phase asks all n
		q := n/2 + 1
		variants := []variant{
			{"SWMR write", 2 * n, []core.ClientOption{core.WithSingleWriter()}, write, false},
			{"read", 4 * n, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase), all}, read, true},
			{"MWMR write", 4 * n, []core.ClientOption{all}, write, false},
			{"read (fast path)", 2 * n, []core.ClientOption{all}, read, true},
			{"read, one quorum", 2*q + 2*n, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase)}, read, true},
			{"MWMR write, one quorum", 2*q + 2*n, nil, write, false},
			{"read (fast path), one quorum", 2 * q, nil, read, true},
		}
		for _, v := range variants {
			perOp, err := countMessages(o, n, v.prime, ops, v.opts, v.run)
			if err != nil {
				return nil, fmt.Errorf("T1 n=%d %s: %w", n, v.name, err)
			}
			ok := "yes"
			if perOp != float64(v.expected) {
				ok = "no"
			}
			tbl.AddRow(fmt.Sprintf("%d", n), v.name, fmt.Sprintf("%.1f", perOp),
				fmt.Sprintf("%d", v.expected), ok)
		}
	}
	tbl.Notes = append(tbl.Notes,
		"counts include replies/acks; delays are zero so every phase touches each replica it asks exactly once: all n for updates and for the paper's queries, one majority q for the default client's queries",
		"the plain read disables the fast path (ReadTwoPhase) to expose the paper's two-phase cost; the repository benchmark measures the fast path under load (client.fast_hit_frac)")
	return tbl, nil
}

// countMessages runs ops operations through one client (opts) of a fresh
// n-replica instant-delivery cluster and returns the messages sent per
// operation. prime first writes the register through a single writer, so
// that reads find a stable value everywhere.
func countMessages(o Options, n int, prime bool, ops int, opts []core.ClientOption, run func(context.Context, *core.Client) error) (float64, error) {
	c := o.cluster(n)
	defer c.Close()
	cli := c.Client(opts...)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if prime {
		if err := c.Client(core.WithSingleWriter()).Write(ctx, "x", []byte("v")); err != nil {
			return 0, err
		}
		settle()
	}
	c.ResetNetStats()
	for i := 0; i < ops; i++ {
		if err := run(ctx, cli); err != nil {
			return 0, err
		}
	}
	settle()
	return float64(c.NetStats().Sent) / float64(ops), nil
}

// T2Rounds measures operation latency on a fixed-delay network and infers
// round trips, checking the paper's round complexity: writes 1 round trip
// (single-writer), reads 2, multi-writer writes 2; the fast path brings
// quiescent reads back to 1.
func T2Rounds(o Options) (*Table, error) {
	const oneWay = 500 * time.Microsecond
	tbl := &Table{
		ID:      "T2",
		Title:   "round (latency) complexity",
		Claim:   "SWMR write: 1 round trip; read: 2; MWMR write: 2; fast-path read: 1",
		Headers: []string{"operation", "mean", "p99", "RTTs (vs SWMR write)", "expected RTTs"},
		Notes: []string{
			fmt.Sprintf("one-way delay fixed at %v; RTTs normalized to the measured SWMR write (1 RT by construction), which also absorbs the simulator's timer overhead", oneWay),
			"the plain read disables the fast path (ReadTwoPhase) to expose the paper's round complexity; the repository benchmark measures the fast path under load (client.rounds_per_read)",
		},
	}
	ops := o.scale(100, 20)
	n := 5

	type variant struct {
		name     string
		expected float64
		opts     []core.ClientOption
		isRead   bool
	}
	variants := []variant{
		{"SWMR write", 1, []core.ClientOption{core.WithSingleWriter()}, false},
		{"read", 2, []core.ClientOption{core.WithReadMode(core.ReadTwoPhase)}, true},
		{"MWMR write", 2, nil, false},
		{"read (fast path)", 1, nil, true},
	}
	var baseline time.Duration // measured SWMR write = 1 round trip
	for _, v := range variants {
		samples, err := func() ([]time.Duration, error) {
			c := o.cluster(n, abd.WithDelays(oneWay, oneWay))
			defer c.Close()
			cli := c.Client(v.opts...)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			fn := func() error { return cli.Write(ctx, "x", []byte("v")) }
			if v.isRead {
				if err := c.Client(core.WithSingleWriter()).Write(ctx, "x", []byte("v")); err != nil {
					return nil, err
				}
				settle()
				fn = func() error { _, err := cli.Read(ctx, "x"); return err }
			}
			return latencies(ops, fn)
		}()
		if err != nil {
			return nil, fmt.Errorf("T2 %s: %w", v.name, err)
		}
		m := mean(samples)
		if baseline == 0 {
			baseline = m // the first variant is the SWMR write
		}
		inferred := float64(m) / float64(baseline)
		tbl.AddRow(v.name, us(m), us(percentile(samples, 0.99)),
			ratio(inferred), ratio(v.expected))
	}
	return tbl, nil
}
