// migration: replace the entire replica group while reads and writes keep
// flowing — the RAMBO-style reconfiguration extension. An old 3-node group
// is migrated to a new 5-node group; during the migration every operation
// spans both groups, so atomicity never lapses; afterwards the old group is
// shut down for good.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	abd "repro"
	"repro/internal/reconfig"
)

func main() {
	// The two replica groups are two clusters, each on its own simulated
	// network; the reconfigurable client holds one client of each.
	delays := abd.WithDelays(50*time.Microsecond, 200*time.Microsecond)
	oldGroup, err := abd.NewCluster(3, abd.WithSeed(21), delays)
	if err != nil {
		log.Fatal(err)
	}
	defer oldGroup.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cli, err := reconfig.NewClient(reconfig.Member{Epoch: 1, Client: oldGroup.Client()})
	if err != nil {
		log.Fatal(err)
	}
	defer cli.Close()

	regs := []string{"users", "orders", "config"}
	for _, reg := range regs {
		if err := cli.Write(ctx, reg, []byte("v1-"+reg)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("epoch 1 (3 replicas): wrote %d registers\n", len(regs))

	// Background workload that never stops during the migration.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var opCount int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := cli.Write(ctx, "orders", []byte(fmt.Sprintf("order-%d", i))); err != nil {
				log.Printf("background write: %v", err)
				return
			}
			if _, err := cli.Read(ctx, "users"); err != nil {
				log.Printf("background read: %v", err)
				return
			}
			opCount = i + 1
		}
	}()

	// Bring up the new group and migrate.
	newGroup, err := abd.NewCluster(5, abd.WithSeed(22), delays)
	if err != nil {
		log.Fatal(err)
	}
	defer newGroup.Close()
	if err := cli.AddConfig(reconfig.Member{Epoch: 2, Client: newGroup.Client()}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("epoch 2 activated: operations now span both groups")
	time.Sleep(5 * time.Millisecond) // let some dual-config traffic through

	if err := cli.Transfer(ctx, regs); err != nil {
		log.Fatal(err)
	}
	// Drain the workload before retiring the old configuration, as a real
	// deployment would (in-flight operations may still span both groups).
	close(stop)
	wg.Wait()
	if err := cli.RemoveConfig(1); err != nil {
		log.Fatal(err)
	}
	fmt.Println("state transferred; epoch 1 retired")

	// The old group is now irrelevant: crash it entirely.
	for i := range oldGroup.Size() {
		oldGroup.Crash(i)
	}
	fmt.Printf("background workload ran %d op pairs across the migration\n", opCount)

	for _, reg := range regs {
		v, err := cli.Read(ctx, reg)
		if err != nil {
			log.Fatalf("read %s on the new group alone: %v", reg, err)
		}
		fmt.Printf("%s = %s (served by the 5-node group)\n", reg, v)
	}
}
