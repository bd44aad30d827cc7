package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

// TestDeadPeerVisibleInMetrics is the acceptance check for the hardened TCP
// path: a client running over real tcpnet wrapped in a chaos layer
// injecting 30% message drop plus periodic connection resets, with one
// replica of three unreachable. Adaptive retransmission must keep every
// operation terminating, the unreachable peer must show as dial failures
// and backoff-suppressed sends, restarting that replica must bring its
// connection back, and all of it must be visible through the /metrics
// exposition nodeGatherer builds.
func TestDeadPeerVisibleInMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a real TCP cluster")
	}

	// Two live replicas (a majority of 3) on real sockets.
	reps := make([]*core.Replica, 2)
	addrs := make(map[types.NodeID]string)
	for i := 0; i < 2; i++ {
		ep, err := tcpnet.Listen(tcpnet.Config{ID: types.NodeID(i), ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		addrs[types.NodeID(i)] = ep.Addr()
		reps[i] = core.NewReplica(types.NodeID(i), ep)
		reps[i].Start()
		defer reps[i].Stop()
	}
	// Replica 2 starts dead: reserve a port, keep it closed for now.
	resv, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := resv.Addr().String()
	resv.Close()
	addrs[2] = deadAddr

	// The client's endpoint: short backoff windows so the dead peer costs
	// both dial failures and suppressed sends within the first few
	// operations, chaos on top injecting 30% drop and a 2% chance per
	// message of a connection reset.
	cliEp, err := tcpnet.Listen(tcpnet.Config{
		ID:    9000,
		Peers: addrs,
		// DialTimeout is load-bearing: connecting to the reserved-but-
		// closed port fails fast on loopback, but keep the budget tight
		// anyway so a retransmitting phase never waits on the dead peer.
		DialTimeout:  200 * time.Millisecond,
		WriteTimeout: 500 * time.Millisecond,
		BackoffMin:   10 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cnet := chaos.New(42)
	cnet.SetDefaultFaults(chaos.Faults{Drop: 0.30, Reset: 0.02})
	cli, err := core.NewClient(9000, cnet.Wrap(cliEp), []types.NodeID{0, 1, 2},
		core.WithRetransmit(20*time.Millisecond, 200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 15; i++ {
		val := []byte(fmt.Sprintf("v%d", i))
		if err := cli.Write(ctx, "x", val); err != nil {
			t.Fatalf("write %d under 30%% drop: %v", i, err)
		}
		if got, err := cli.Read(ctx, "x"); err != nil {
			t.Fatalf("read %d under 30%% drop: %v", i, err)
		} else if string(got) != string(val) {
			t.Fatalf("read %d returned %q, want %q", i, got, val)
		}
	}
	if st := cliEp.Stats(); st.DialFailures == 0 || st.SuppressedSends == 0 {
		t.Fatalf("dead peer cost no dial failures or no suppressed sends: %+v", st)
	}

	// Revive replica 2 on the reserved address: the first dial after the
	// current backoff window reconnects it.
	ep2, err := tcpnet.Listen(tcpnet.Config{ID: 2, ListenAddr: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := core.NewReplica(2, ep2)
	rep2.Start()
	defer rep2.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for cliEp.Stats().ConnsActive < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("no connection to replica 2 after it revived: %+v", cliEp.Stats())
		}
		_ = cli.Write(ctx, "x", []byte("revived"))
	}

	// Scrape the exposition nodeGatherer builds. The endpoint with dial
	// traffic is the client's (replicas dial no one), so pass it in the
	// probe slot — exactly how abd-node surfaces its embedded probe client,
	// whose endpoint is likewise the one that dials the replica group.
	srv := httptest.NewServer(obs.ExposeFull(nodeGatherer(newNodeHealth(reps[0], cliEp, nil, cliEp)), nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"abd_transport_dial_failures_total",
		"abd_transport_suppressed_sends_total",
	} {
		re := regexp.MustCompile(series + `\{node="0"\} (\d+)`)
		m := re.FindSubmatch(body)
		if m == nil {
			t.Errorf("series %s missing from /metrics", series)
			continue
		}
		if v, _ := strconv.Atoi(string(m[1])); v == 0 {
			t.Errorf("series %s is 0, want > 0", series)
		}
	}
	if !regexp.MustCompile(`abd_transport_conns_active\{node="0"\} 3\n`).Match(body) {
		t.Error("conns_active missing from /metrics or not 3 after replica 2 revived")
	}
	if !regexp.MustCompile(`abd_transport_resets_total\{node="0"\} [1-9]`).Match(body) {
		t.Error("resets counter missing or zero in /metrics (chaos reset faults should have fired)")
	}
}
