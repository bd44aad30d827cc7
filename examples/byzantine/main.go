// byzantine: one replica of five actively lies — and WithByzantine(1), the
// protocol's first-class Byzantine mode, defeats every lying strategy the
// adversary has. The demo first shows the attack working: a fabricating
// replica advertises an enormous timestamp and plain majority quorums
// believe it. Then the same workload runs with validated reads against all
// four ByzModes — fabricate, stale, silent, equivocate — and every read
// returns what the writer actually wrote. Under the hood WithByzantine(f)
// switches the client to masking quorums (Malkhi–Reiter, n >= 4f+1) and
// only adopts a (timestamp, value) pair reported identically by f+1
// replicas, an echo f liars can never forge, in one query round. A pair
// claiming to be ahead of the vouched state is masked but not held against
// its sender: it may be an honest write still in flight.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	abd "repro"
	"repro/internal/core"
)

func main() {
	// The attack: plain majority quorums (no validation) trust whichever
	// reply carries the max timestamp — the fabricating replica wins.
	corrupted, err := runReads(core.ByzFabricate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s corrupted reads: %v\n", "plain majority vs fabricate:", corrupted > 0)

	// The defense: the same workload, same adversary budget, but clients
	// built with WithByzantine(1). All four lying strategies lose.
	for _, m := range []struct {
		mode core.ByzMode
		name string
	}{
		{core.ByzFabricate, "fabricate"},
		{core.ByzStale, "stale"},
		{core.ByzSilent, "silent"},
		{core.ByzEquivocate, "equivocate"},
	} {
		corrupted, err := runReads(m.mode, core.WithByzantine(1))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("WithByzantine(1) vs %-14s corrupted reads: %d/%d\n", m.name+":", corrupted, readsPerRun)
	}
}

const readsPerRun = 20

// runReads stands up a fresh 5-replica cluster whose replica 2 lies in the
// given mode, then runs readsPerRun write/read pairs through a writer and a
// reader built with opts. It returns how many reads came back with a value
// the writer never wrote. Each run gets its own cluster: single-writer
// sequence numbers restart per client, so reusing replicas across runs
// would pit a fresh counter against the previous run's higher timestamps.
func runReads(mode core.ByzMode, opts ...core.ClientOption) (int, error) {
	cluster, err := abd.NewCluster(5, abd.WithSeed(33))
	if err != nil {
		return 0, err
	}
	defer cluster.Close()
	net := cluster.Net()

	// Replica 2 is an honest replica whose outbound replies pass through a
	// core.Liar: the lie is well-formed protocol, rewritten on the wire.
	const liarID = abd.NodeID(2)
	liar := core.NewLiar(liarID, 1)
	liar.SetMode(mode)
	net.SetInterceptor(liarID, liar.Intercept)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	w := cluster.Client(append(opts, core.WithSingleWriter())...)
	r := cluster.Client(opts...)
	if r.ByzantineF() == 0 && mode != core.ByzSilent {
		// Plain majorities are 3 of 5: cut the reader off from two honest
		// replicas and the liar is in every read quorum it can assemble (a
		// silent liar is in none, and the reader would stall).
		net.BlockLink(r.ID(), 3)
		net.BlockLink(r.ID(), 4)
	}

	corrupted := 0
	for i := 0; i < readsPerRun; i++ {
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
