package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/prof"
	"repro/internal/shard"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// The layer probes time each layer's public functions from outside, in
// this process, at the workload's value size: three repetitions of a fixed
// number of calls, reported as the median repetition's ns (or µs) per call
// and heap allocations per call. They run after the nodes are gone, so
// nothing competes with them for the two cores.

const probeReps = 3

// probe runs f n times per repetition and returns the median repetition's
// time per call and allocations per call.
func probe(n int, f func(i int)) (nsPerOp, allocsPerOp float64) {
	var ns, allocs []float64
	for r := 0; r < probeReps; r++ {
		var took time.Duration
		st := prof.MeasureAllocs(1, func(int) {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				f(i)
			}
			took = time.Since(t0)
		})
		ns = append(ns, float64(took)/float64(n))
		allocs = append(allocs, st.AllocsPerOp/float64(n))
	}
	sort.Float64s(ns)
	sort.Float64s(allocs)
	return ns[probeReps/2], allocs[probeReps/2]
}

// directNet is a zero-latency in-process transport: Send hands the message
// to the receiver's channel. It exists so that the client and replica
// probes charge protocol code, not a socket or a simulator's scheduler.
type directNet struct {
	mu  sync.Mutex
	eps map[types.NodeID]*directEndpoint
}

type directEndpoint struct {
	id  types.NodeID
	net *directNet

	mu     sync.Mutex
	closed bool
	ch     chan transport.Message
}

func newDirectNet() *directNet { return &directNet{eps: make(map[types.NodeID]*directEndpoint)} }

func (n *directNet) endpoint(id types.NodeID) *directEndpoint {
	// The probes keep at most a handful of messages in flight; 1024 slots
	// means deliver never has to drop.
	ep := &directEndpoint{id: id, net: n, ch: make(chan transport.Message, 1024)}
	n.mu.Lock()
	n.eps[id] = ep
	n.mu.Unlock()
	return ep
}

func (e *directEndpoint) ID() types.NodeID               { return e.id }
func (e *directEndpoint) Recv() <-chan transport.Message { return e.ch }
func (e *directEndpoint) Send(to types.NodeID, payload []byte) error {
	e.net.mu.Lock()
	dst, ok := e.net.eps[to]
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %v", types.ErrUnknownNode, to)
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if !dst.closed {
		select {
		case dst.ch <- transport.Message{From: e.id, To: to, Payload: payload}:
		default: // full: reads as loss, which the client's retransmission covers
		}
	}
	return nil
}

func (e *directEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.closed {
		e.closed = true
		close(e.ch)
	}
	return nil
}

// probeMetrics runs every probe and adds its metrics to out.
func probeMetrics(out map[string]float64, ws *workspace, valueBytes int) error {
	val := makeValue(valueBytes, 0, 0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// wire: seal and open one write request; frame and split 16 of them.
	sealed := core.EncodeWriteRequest(1, "r0000", 1, 1000, val)
	out["wire.seal_ns"], out["wire.seal_allocs"] = probe(20000, func(i int) {
		core.EncodeWriteRequest(uint64(i), "r0000", int64(i), 1000, val)
	})
	out["wire.open_ns"], out["wire.open_allocs"] = probe(20000, func(int) {
		_, err := core.DecodeKind(sealed)
		note(err)
	})
	batch := make([][]byte, 16)
	for i := range batch {
		batch[i] = sealed
	}
	var frame []byte
	out["wire.batch_split_ns"], _ = probe(5000, func(int) {
		frame = wire.AppendBatch(frame[:0], batch)
		_, err := wire.SplitBatch(frame)
		note(err)
	})

	// tcpnet: one payload there and back between two endpoints on loopback.
	rtt, err := probeTCPRTT(sealed)
	note(err)
	out["tcpnet.rtt_us"] = rtt / 1000

	// replica: pre-encoded writes fed to a replica through a raw endpoint,
	// one at a time, each waited for; then the same with a WAL under it.
	out["replica.handle_ns"], out["replica.handle_allocs"], err = probeReplica(2000, val, "")
	note(err)
	out["wal.handle_ns"], out["wal.handle_allocs"], err = probeReplica(300, val, filepath.Join(ws.dir, "probe.wal"))
	note(err)

	// client: Read and Write against three in-memory replicas.
	hub := newDirectNet()
	ids := make([]types.NodeID, replicas)
	for i := range ids {
		ids[i] = types.NodeID(i)
		r := core.NewReplica(ids[i], hub.endpoint(ids[i]))
		r.Start()
		defer r.Stop()
	}
	cl, err := core.NewClient(100, hub.endpoint(100), ids)
	if err != nil {
		return err
	}
	defer cl.Close()
	note(cl.Write(ctx, "p", val))
	out["client.read_ns"], out["client.read_allocs"] = probe(1000, func(int) {
		_, err := cl.Read(ctx, "p")
		note(err)
	})
	out["client.write_ns"], out["client.write_allocs"] = probe(1000, func(int) {
		note(cl.Write(ctx, "p", val))
	})

	// shard: one consistent-hash lookup on a three-group ring.
	ring, err := shard.NewRing(3, 0, nil)
	if err != nil {
		return err
	}
	out["shard.lookup_ns"], _ = probe(100000, func(i int) { ring.Lookup(regName(i & 1023)) })
	return firstErr
}

func probeTCPRTT(payload []byte) (ns float64, err error) {
	srv, err := tcpnet.Listen(tcpnet.Config{ID: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli, err := tcpnet.Listen(tcpnet.Config{ID: 2, Peers: map[types.NodeID]string{1: srv.Addr()}})
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for m := range srv.Recv() {
			_ = srv.Send(m.From, m.Payload) // a send error here shows as the probe's timeout
		}
	}()
	// One timer for the whole probe: a per-call time.After would be billed
	// to the call it guards.
	giveUp := time.NewTimer(30 * time.Second)
	defer giveUp.Stop()
	roundTrip := func() error {
		if err := cli.Send(1, payload); err != nil {
			return err
		}
		select {
		case <-cli.Recv():
			return nil
		case <-giveUp.C:
			return fmt.Errorf("tcpnet echo timed out")
		}
	}
	if err = roundTrip(); err != nil { // connect outside the timing
		return 0, err
	}
	ns, _ = probe(2000, func(int) {
		if e := roundTrip(); e != nil && err == nil {
			err = e
		}
	})
	srv.Close()
	<-echoDone
	return ns, err
}

func probeReplica(n int, val []byte, walPath string) (ns, allocs float64, err error) {
	hub := newDirectNet()
	var r *core.Replica
	if walPath != "" {
		if r, err = core.NewPersistentReplica(50, hub.endpoint(50), walPath); err != nil {
			return 0, 0, err
		}
	} else {
		r = core.NewReplica(50, hub.endpoint(50))
	}
	r.Start()
	defer r.Stop()
	driver := hub.endpoint(900)
	defer driver.Close()

	payloads := make([][]byte, probeReps*n)
	for i := range payloads {
		payloads[i] = core.EncodeWriteRequest(uint64(i+1), "h", int64(i+1), 900, val)
	}
	giveUp := time.NewTimer(30 * time.Second) // one timer, so none is billed per call
	defer giveUp.Stop()
	next := 0
	ns, allocs = probe(n, func(int) {
		if err != nil {
			return
		}
		if e := driver.Send(50, payloads[next]); e != nil {
			err = e
			return
		}
		next++
		select {
		case <-driver.Recv():
		case <-giveUp.C:
			err = fmt.Errorf("replica did not acknowledge")
		}
	})
	return ns, allocs, err
}
