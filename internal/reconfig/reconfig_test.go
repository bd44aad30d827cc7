package reconfig

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/types"
)

// rig wires two replica groups (old: nodes 0-2, new: nodes 10-14) on one
// simulated network.
type rig struct {
	t        *testing.T
	net      *netsim.Net
	replicas []*core.Replica
	nextCli  types.NodeID
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{t: t, net: netsim.New(netsim.Config{Seed: 90}), nextCli: 1000}
	t.Cleanup(func() {
		for _, rep := range r.replicas {
			rep.Stop()
		}
		r.net.Close()
	})
	return r
}

func (r *rig) group(ids ...types.NodeID) []types.NodeID {
	r.t.Helper()
	for _, id := range ids {
		rep := core.NewReplica(id, r.net.Node(id))
		rep.Start()
		r.replicas = append(r.replicas, rep)
	}
	return ids
}

func (r *rig) coreClient(group []types.NodeID) *core.Client {
	r.t.Helper()
	id := r.nextCli
	r.nextCli++
	cli, err := core.NewClient(id, r.net.Node(id), group)
	if err != nil {
		r.t.Fatal(err)
	}
	return cli
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func oldGroup() []types.NodeID { return []types.NodeID{0, 1, 2} }
func newGroup() []types.NodeID { return []types.NodeID{10, 11, 12, 13, 14} }

func TestSingleConfigBehavesLikeCore(t *testing.T) {
	r := newRig(t)
	g := r.group(oldGroup()...)
	cli, err := NewClient(500, Member{Epoch: 1, Client: r.coreClient(g)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := ctxT(t)

	if err := cli.Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := cli.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" {
		t.Fatalf("read %q", v)
	}
	// Initial state of an unwritten register.
	v, err = cli.Read(ctx, "y")
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("initial read %v", v)
	}
}

func TestFullMigration(t *testing.T) {
	r := newRig(t)
	gOld := r.group(oldGroup()...)
	gNew := r.group(newGroup()...)

	cli, err := NewClient(500, Member{Epoch: 1, Client: r.coreClient(gOld)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := ctxT(t)

	regs := []string{"a", "b", "c"}
	for _, reg := range regs {
		if err := cli.Write(ctx, reg, []byte("pre-"+reg)); err != nil {
			t.Fatal(err)
		}
	}

	// Begin migration: both configs active.
	if err := cli.AddConfig(Member{Epoch: 2, Client: r.coreClient(gNew)}); err != nil {
		t.Fatal(err)
	}
	if got := cli.Epochs(); len(got) != 2 {
		t.Fatalf("epochs %v", got)
	}

	// Writes during migration land in both groups.
	if err := cli.Write(ctx, "a", []byte("during")); err != nil {
		t.Fatal(err)
	}

	if err := cli.Transfer(ctx, regs); err != nil {
		t.Fatal(err)
	}
	if err := cli.RemoveConfig(1); err != nil {
		t.Fatal(err)
	}

	// The old group is gone entirely — crash all of it.
	for _, id := range gOld {
		r.net.Crash(id)
	}

	want := map[string]string{"a": "during", "b": "pre-b", "c": "pre-c"}
	for reg, expect := range want {
		v, err := cli.Read(ctx, reg)
		if err != nil {
			t.Fatalf("read %s after migration: %v", reg, err)
		}
		if string(v) != expect {
			t.Fatalf("%s = %q, want %q", reg, v, expect)
		}
	}
}

// TestNextTagAfterNeverReusesATag: two writes to one register through one
// reconfig client can observe the same newest tag; the tags Write then
// issues must still be distinct and increasing, or one tag would name two
// values.
func TestNextTagAfterNeverReusesATag(t *testing.T) {
	r := newRig(t)
	g := r.group(oldGroup()...)
	cli, err := NewClient(500, Member{Epoch: 1, Client: r.coreClient(g)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := ctxT(t)

	if err := cli.Write(ctx, "x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	members, err := cli.snapshotMembers()
	if err != nil {
		t.Fatal(err)
	}
	observed, _, err := queryAll(ctx, members, "x")
	if err != nil {
		t.Fatal(err)
	}
	first := members[0].Client.NextTagAfter("x", observed)
	second := members[0].Client.NextTagAfter("x", observed)
	if !tagLess(observed, first) || !tagLess(first, second) {
		t.Fatalf("tags after %v: %v then %v, want strictly increasing", observed.TS, first.TS, second.TS)
	}
}

func TestEpochValidation(t *testing.T) {
	r := newRig(t)
	g := r.group(oldGroup()...)
	cli, err := NewClient(500, Member{Epoch: 5, Client: r.coreClient(g)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.AddConfig(Member{Epoch: 5, Client: r.coreClient(g)}); err == nil {
		t.Fatal("equal epoch accepted")
	}
	if err := cli.AddConfig(Member{Epoch: 4, Client: r.coreClient(g)}); err == nil {
		t.Fatal("older epoch accepted")
	}
	if err := cli.RemoveConfig(5); err == nil {
		t.Fatal("removed the last configuration")
	}
	if err := cli.RemoveConfig(99); err == nil {
		t.Fatal("removed a non-active epoch")
	}
}

func TestConcurrentOpsDuringMigration(t *testing.T) {
	r := newRig(t)
	gOld := r.group(oldGroup()...)
	gNew := r.group(newGroup()...)
	ctx := ctxT(t)

	// Two independent reconfigurable clients over the same configurations
	// (e.g. two app servers), both migrating in the same order.
	mk := func() *Client {
		cli, err := NewClient(r.nextCli, Member{Epoch: 1, Client: r.coreClient(gOld)})
		if err != nil {
			t.Fatal(err)
		}
		return cli
	}
	c1, c2 := mk(), mk()
	defer c1.Close()
	defer c2.Close()

	if err := c1.Write(ctx, "x", []byte("base")); err != nil {
		t.Fatal(err)
	}

	for _, c := range []*Client{c1, c2} {
		if err := c.AddConfig(Member{Epoch: 2, Client: r.coreClient(gNew)}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := c1.Write(ctx, "x", []byte(fmt.Sprintf("m%d", i))); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		last := ""
		for i := 0; i < 10; i++ {
			v, err := c2.Read(ctx, "x")
			if err != nil {
				errCh <- err
				return
			}
			_ = last
			last = string(v)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Finish the migration on both and verify the final value survived into
	// the new configuration alone.
	for _, c := range []*Client{c1, c2} {
		if err := c.Transfer(ctx, []string{"x"}); err != nil {
			t.Fatal(err)
		}
		if err := c.RemoveConfig(1); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range gOld {
		r.net.Crash(id)
	}
	v, err := c2.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "m9" {
		t.Fatalf("final read %q, want m9", v)
	}
}

func TestRegisterHandle(t *testing.T) {
	r := newRig(t)
	g := r.group(oldGroup()...)
	cli, err := NewClient(500, Member{Epoch: 1, Client: r.coreClient(g)})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := ctxT(t)

	reg := cli.Register("h")
	if err := reg.Write(ctx, []byte("via-handle")); err != nil {
		t.Fatal(err)
	}
	v, err := reg.Read(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "via-handle" {
		t.Fatalf("read %q", v)
	}
}
