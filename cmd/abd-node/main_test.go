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

// TestBreakerTransitionsVisibleInMetrics is the acceptance check for the
// hardened TCP path: a client running over real tcpnet wrapped in a chaos
// layer injecting 30% message drop plus periodic connection resets, with
// one replica of three unreachable. Adaptive retransmission must keep
// every operation terminating, the unreachable peer must trip the client's
// circuit breaker, restarting that replica must close it again, and all of
// it must be visible through the /metrics exposition nodeGatherer builds.
func TestBreakerTransitionsVisibleInMetrics(t *testing.T) {
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

	// The client's endpoint: aggressive breaker so the dead peer trips it
	// within the first few operations, chaos on top injecting 30% drop and
	// a 2% chance per message of a connection reset.
	cliEp, err := tcpnet.Listen(tcpnet.Config{
		ID:    9000,
		Peers: addrs,
		// DialTimeout is load-bearing: connecting to the reserved-but-
		// closed port fails fast on loopback, but keep the budget tight
		// anyway so a retransmitting phase never waits on the dead peer.
		DialTimeout:      200 * time.Millisecond,
		WriteTimeout:     500 * time.Millisecond,
		BackoffMin:       10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		BreakerThreshold: 3,
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
	if st := cliEp.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("dead peer never tripped the breaker: %+v", st)
	}

	// Revive replica 2 on the reserved address: the next half-open probe
	// should succeed and close the breaker.
	ep2, err := tcpnet.Listen(tcpnet.Config{ID: 2, ListenAddr: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	rep2 := core.NewReplica(2, ep2)
	rep2.Start()
	defer rep2.Stop()
	deadline := time.Now().Add(30 * time.Second)
	for cliEp.Stats().BreakerCloses == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after replica 2 revived: %+v", cliEp.Stats())
		}
		_ = cli.Write(ctx, "x", []byte("revived"))
	}

	// Scrape the exposition nodeGatherer builds. The endpoint with breaker
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
		"abd_transport_breaker_opens_total",
		"abd_transport_breaker_probes_total",
		"abd_transport_breaker_closes_total",
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
	if !regexp.MustCompile(`abd_transport_breakers_open\{node="0"\} \d`).Match(body) {
		t.Error("breakers_open gauge missing from /metrics")
	}
	if !regexp.MustCompile(`abd_transport_resets_total\{node="0"\} [1-9]`).Match(body) {
		t.Error("resets counter missing or zero in /metrics (chaos reset faults should have fired)")
	}
}
