package reconfig

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	abd "repro"
	"repro/internal/core"
)

// newGroup starts an n-replica group as a cluster of its own, closed at
// cleanup. The tests migrate from a 3-replica group to a 5-replica one.
func newGroup(t *testing.T, n int) *abd.Cluster {
	t.Helper()
	c, err := abd.NewCluster(n, abd.WithSeed(90))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestSingleConfigBehavesLikeCore(t *testing.T) {
	g := newGroup(t, 3)
	cli, err := NewClient(Member{Epoch: 1, Client: g.Client()})
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
	gOld, gNew := newGroup(t, 3), newGroup(t, 5)

	cli, err := NewClient(Member{Epoch: 1, Client: gOld.Client()})
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
	if err := cli.AddConfig(Member{Epoch: 2, Client: gNew.Client()}); err != nil {
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
	for i := range gOld.Size() {
		gOld.Crash(i)
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
	g := newGroup(t, 3)
	cli, err := NewClient(Member{Epoch: 1, Client: g.Client()})
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

// TestWriteQueriesTagsOnly: a reconfigurable write needs the newest tag
// across its configurations, not their values, so overwriting a 4 KiB
// register with a 4 KiB value moves fewer reply bytes than one copy of it.
func TestWriteQueriesTagsOnly(t *testing.T) {
	g := newGroup(t, 3)
	cli, err := NewClient(Member{Epoch: 1, Client: g.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := ctxT(t)
	val := bytes.Repeat([]byte{0xA5}, 4096)
	if err := cli.Write(ctx, "x", val); err != nil {
		t.Fatal(err)
	}

	g.ResetNetStats()
	if err := cli.Write(ctx, "x", val); err != nil {
		t.Fatal(err)
	}
	if got := g.NetStats().BytesByKind[byte(core.KindReadReply)]; got >= 4096 {
		t.Fatalf("the write's query replies carried %d bytes, want < 4096 (no stored value)", got)
	}
}

func TestEpochValidation(t *testing.T) {
	g := newGroup(t, 3)
	cli, err := NewClient(Member{Epoch: 5, Client: g.Client()})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.AddConfig(Member{Epoch: 5, Client: g.Client()}); err == nil {
		t.Fatal("equal epoch accepted")
	}
	if err := cli.AddConfig(Member{Epoch: 4, Client: g.Client()}); err == nil {
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
	gOld, gNew := newGroup(t, 3), newGroup(t, 5)
	ctx := ctxT(t)

	// Two independent reconfigurable clients over the same configurations
	// (e.g. two app servers), both migrating in the same order.
	mk := func() *Client {
		cli, err := NewClient(Member{Epoch: 1, Client: gOld.Client()})
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
		if err := c.AddConfig(Member{Epoch: 2, Client: gNew.Client()}); err != nil {
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
	for i := range gOld.Size() {
		gOld.Crash(i)
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
	g := newGroup(t, 3)
	cli, err := NewClient(Member{Epoch: 1, Client: g.Client()})
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
