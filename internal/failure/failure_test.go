package failure

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/transport"
	"repro/internal/types"
)

func TestParseRoundTrip(t *testing.T) {
	script := "crash:2@100ms; partition:0,1|2,3,4@200ms; heal@400ms; delay:3@1s; block:0>2@1.5s; unblock:0>2@2s; recover:2@3s; faults:*:drop=0.3,dup=0.1@4s; faults:0>1:corrupt=0.05,delay=1ms..5ms@5s; reset:0>2@6s; reset:*@7s; faults:*:none@8s; partition:@9s"
	sched, err := Parse(script)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 13 {
		t.Fatalf("parsed %d events", len(sched))
	}
	// Round trip through String and Parse again.
	again, err := Parse(sched.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sched.String(), err)
	}
	if len(again) != len(sched) {
		t.Fatalf("round trip lost events: %d vs %d", len(again), len(sched))
	}
	for i := range sched {
		if again[i].At != sched[i].At || again[i].Action.String() != sched[i].Action.String() {
			t.Fatalf("event %d: %v@%v vs %v@%v", i,
				again[i].Action, again[i].At, sched[i].Action, sched[i].At)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"crash:2",                    // missing offset
		"crash:x@1s",                 // bad node
		"crash:-1@1s",                // negative node id
		"crash:2@-5s",                // negative offset
		"warp:1@1s",                  // unknown action
		"block:1-2@1s",               // bad link syntax
		"block:a>b@1s",               // non-numeric link endpoints
		"block:1>@1s",                // missing link target
		"partition:a|b@1s",           // bad node ids
		"delay:fast@1s",              // bad factor
		"faults:drop=0.3@1s",         // missing link target
		"faults:*:drop=1.5@1s",       // probability out of range
		"faults:*:warp=0.1@1s",       // unknown fault key
		"faults:*:delay=5ms..1ms@1s", // inverted delay range
		"faults:0>1:drop@1s",         // missing value
		"reset:1@1s",                 // reset needs a link or *
	}
	for _, script := range bad {
		if _, err := Parse(script); err == nil {
			t.Errorf("Parse(%q) accepted", script)
		}
	}
}

// TestParseDuplicateOffsets pins the documented semantics: events sharing
// an offset are all kept and fire in script order (stable sort in Run).
func TestParseDuplicateOffsets(t *testing.T) {
	sched, err := Parse("crash:0@100ms; crash:1@100ms; heal@100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("parsed %d events, want 3", len(sched))
	}
	for i, want := range []string{"crash:0", "crash:1", "heal"} {
		if got := sched[i].Action.String(); got != want {
			t.Errorf("event %d = %s, want %s", i, got, want)
		}
	}
}

func TestValidateRejectsOutOfRangeNodes(t *testing.T) {
	sched, err := Parse("crash:7@1ms; heal@2ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(5); err == nil {
		t.Error("Validate(5) accepted a schedule referencing node 7")
	}
	if err := sched.Validate(8); err != nil {
		t.Errorf("Validate(8) rejected an in-range schedule: %v", err)
	}
	ok, err := Parse("partition:0,1|2,3,4@1ms; block:0>4@2ms; faults:0>4:drop=0.5@3ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(5); err != nil {
		t.Errorf("Validate(5) rejected a valid schedule: %v", err)
	}
	if err := ok.Validate(4); err == nil {
		t.Error("Validate(4) accepted a schedule referencing node 4")
	}
}

// countingEndpoint stands in for a real transport under chaos.Net.Wrap: it
// counts the sends that reach it.
type countingEndpoint struct {
	id    types.NodeID
	sends int
}

func (e *countingEndpoint) ID() types.NodeID                { return e.id }
func (e *countingEndpoint) Send(types.NodeID, []byte) error { e.sends++; return nil }
func (e *countingEndpoint) Recv() <-chan transport.Message  { return nil }
func (e *countingEndpoint) Close() error                    { return nil }

// TestChaosActionsApplyToChaosFabric drives the link-fault and reset actions
// against a chaos.Net and the simulator: both apply the fault mix, and the
// simulator, which has no connections, ignores the reset.
func TestChaosActionsApplyToChaosFabric(t *testing.T) {
	sched, err := Parse("faults:*:drop=1@0ms; reset:*@0ms")
	if err != nil {
		t.Fatal(err)
	}
	cn := chaos.New(1)
	wrapped := cn.Wrap(&countingEndpoint{id: 0})
	sim := netsim.New(netsim.Config{})
	defer sim.Close()
	a := sim.Node(0)
	sim.Node(1)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, f := range []Fabric{cn, sim} {
		if err := sched.Run(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := wrapped.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := cn.Stats(); st.Dropped != 1 {
		t.Errorf("chaos fabric did not apply faults action: %+v", st)
	}
	if err := a.Send(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := sim.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Errorf("simulator did not apply faults action: dropped %d, delivered %d", st.Dropped, st.Delivered)
	}
}

// TestFabricsAgree is the conformance check of the one fault model: the
// same actions, applied in order to the simulator and to the chaos layer
// over a stand-in transport, give the same deliver/drop verdict on every
// link, and the verdict the action documents. Node 3 is in no group of the
// partition, so it is isolated.
func TestFabricsAgree(t *testing.T) {
	nodes := []types.NodeID{0, 1, 2, 3}
	all := func(from, to types.NodeID) bool { return true }
	none := func(from, to types.NodeID) bool { return false }
	notBlocked := func(from, to types.NodeID) bool { return from != 0 || to != 2 }
	steps := []struct {
		action Action
		want   func(from, to types.NodeID) bool
	}{
		{Crash{Node: 1}, func(from, to types.NodeID) bool { return from != 1 && to != 1 }},
		{Recover{Node: 1}, all},
		{Partition{Groups: [][]types.NodeID{{0, 1}, {2}}}, func(from, to types.NodeID) bool { return from <= 1 && to <= 1 }},
		{Heal{}, all},
		{Partition{}, none},
		{Heal{}, all},
		{Block{From: 0, To: 2}, notBlocked},
		{Delay{Factor: 0}, notBlocked},
		{Unblock{From: 0, To: 2}, all},
		{LinkFaults{All: true, Faults: chaos.Faults{Drop: 1}}, none},
		{LinkFaults{All: true}, all},
	}

	sim := netsim.New(netsim.Config{Seed: 1})
	defer sim.Close()
	cn := chaos.New(1)
	inner := map[types.NodeID]*countingEndpoint{}
	wrapped := map[types.NodeID]*chaos.Endpoint{}
	for _, id := range nodes {
		sim.Node(id)
		inner[id] = &countingEndpoint{id: id}
		wrapped[id] = cn.Wrap(inner[id])
	}
	// Zero delays: both fabrics deliver inside Send.
	simDelivers := func(from, to types.NodeID) bool {
		before := sim.Stats().Delivered
		if err := sim.Node(from).Send(to, []byte{1}); err != nil {
			t.Fatal(err)
		}
		return sim.Stats().Delivered > before
	}
	chaosDelivers := func(from, to types.NodeID) bool {
		before := inner[from].sends
		if err := wrapped[from].Send(to, []byte{1}); err != nil {
			t.Fatal(err)
		}
		return inner[from].sends > before
	}

	var drops int64
	for _, step := range steps {
		step.action.Apply(sim)
		step.action.Apply(cn)
		for _, from := range nodes {
			for _, to := range nodes {
				if from == to {
					continue
				}
				s, c, want := simDelivers(from, to), chaosDelivers(from, to), step.want(from, to)
				if s != want || c != want {
					t.Errorf("after %s: %d>%d delivered on netsim %v, on chaos %v, want %v",
						step.action, from, to, s, c, want)
				}
				if !s {
					drops++
				}
			}
		}
	}
	if st := sim.Stats(); st.Dropped != drops {
		t.Errorf("netsim Stats.Dropped = %d, want every fault loss (%d)", st.Dropped, drops)
	}
}

func TestParseEmptyAndWhitespace(t *testing.T) {
	sched, err := Parse("  ;  ; ")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 0 {
		t.Fatalf("want empty schedule, got %d", len(sched))
	}
}

func TestRunAppliesInOrder(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	net.Node(0)
	net.Node(1)

	sched := Schedule{
		{At: 30 * time.Millisecond, Action: Heal{}},
		{At: 10 * time.Millisecond, Action: Crash{Node: 0}}, // out of order on purpose
		{At: 20 * time.Millisecond, Action: Crash{Node: 1}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := sched.Run(ctx, net); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("schedule finished too fast: %v", elapsed)
	}
	if !net.Crashed(0) || !net.Crashed(1) {
		t.Fatal("crashes not applied")
	}
}

func TestRunCancelled(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	net.Node(0)

	sched := Schedule{{At: 10 * time.Second, Action: Crash{Node: 0}}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := sched.Run(ctx, net); err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if net.Crashed(0) {
		t.Fatal("event applied after cancellation")
	}
}

func TestPartitionActionApplies(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	a := net.Node(1)
	net.Node(2)

	Partition{Groups: [][]types.NodeID{{1}, {2}}}.Apply(net)
	if err := a.Send(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-net.Node(2).Recv():
		t.Fatal("message crossed applied partition")
	case <-time.After(50 * time.Millisecond):
	}

	Heal{}.Apply(net)
	if err := a.Send(2, []byte("y")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-net.Node(2).Recv():
	case <-time.After(time.Second):
		t.Fatal("message not delivered after heal")
	}
}
