package abd_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	abd "repro"
	"repro/internal/core"
	"repro/internal/quorum"
)

// The canonical flow: a five-replica cluster tolerates two crashes and
// blocks — as the theory requires — once a third replica dies.
func Example() {
	cluster, err := abd.NewCluster(5, abd.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	client := cluster.Client()
	if err := client.Write(ctx, "greeting", []byte("hello")); err != nil {
		log.Fatal(err)
	}

	cluster.Crash(0)
	cluster.Crash(3)
	v, err := client.Read(ctx, "greeting")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 2 crashes: %s\n", v)

	cluster.Crash(1) // majority gone
	short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	_, err = client.Read(short, "greeting")
	fmt.Println("after 3 crashes, read blocked:", errors.Is(err, abd.ErrNoQuorum))
	// Output:
	// after 2 crashes: hello
	// after 3 crashes, read blocked: true
}

// Register handles bind a client to one named register and satisfy the
// abd.Register interface used by the shared-memory algorithm packages.
func ExampleRegister() {
	cluster, err := abd.NewCluster(3, abd.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	var reg abd.Register = cluster.Client().Register("counter")
	if err := reg.Write(ctx, []byte("42")); err != nil {
		log.Fatal(err)
	}
	v, err := reg.Read(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", v)
	// Output: 42
}

// The single-writer fast path writes in one round trip; the unanimous-read
// optimization brings quiescent reads down to one round trip too.
func ExampleWithSingleWriter() {
	cluster, err := abd.NewCluster(5, abd.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	// SWMR: local sequence numbers, no query phase.
	w := cluster.Client(abd.WithSingleWriter())
	for i := 0; i < 3; i++ {
		if err := w.Write(ctx, "log", []byte{byte(i)}); err != nil {
			log.Fatal(err)
		}
	}
	m := w.Metrics()
	fmt.Printf("writes=%d phases=%d\n", m.Writes, m.Phases)
	// Output: writes=3 phases=3
}

// Any quorum system from internal/quorum can replace majorities, as a
// client default — here a 2x3 grid, the published generalization of the
// paper's construction.
func ExampleWithClientDefaults_grid() {
	cluster, err := abd.NewCluster(6, abd.WithSeed(1),
		abd.WithClientDefaults(core.WithQuorum(quorum.NewGrid(2, 3))))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	client := cluster.Client()
	if err := client.Write(ctx, "x", []byte("on-a-grid")); err != nil {
		log.Fatal(err)
	}
	v, err := client.Read(ctx, "x")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", v)
	// Output: on-a-grid
}

// Per-client protocol options compose with cluster defaults.
func ExampleWithClientDefaults() {
	cluster, err := abd.NewCluster(3, abd.WithSeed(1),
		abd.WithClientDefaults(abd.WithReadMode(abd.ReadTwoPhase)))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	ctx := context.Background()

	w := cluster.Client(abd.WithSingleWriter())
	if err := w.Write(ctx, "x", []byte("v")); err != nil {
		log.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let all replicas adopt

	r := cluster.Client()
	if _, err := r.Read(ctx, "x"); err != nil {
		log.Fatal(err)
	}
	m := r.Metrics()
	fmt.Printf("reads=%d write-backs=%d\n", m.Reads, m.WriteBacks)
	// Output: reads=1 write-backs=1
}
