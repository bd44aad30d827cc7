// Package baseline implements the comparison systems the evaluation runs
// ABD against:
//
//   - Central: a single unreplicated server. The availability floor — one
//     crash loses everything — and the latency floor: one round trip, two
//     messages per operation.
//   - ROWA (read-one/write-all), built from the core protocol with a
//     read-one quorum system and fanout 1: reads are cheap, writes block
//     the moment a single replica crashes (experiment F2).
//   - The "regular" register — ABD without the read write-back — is a core
//     read mode (core.ReadRegular), not a separate system.
package baseline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Message kinds for the central server protocol, disjoint from core's so
// netsim's per-kind metering can tell the systems apart.
const (
	kindGet      byte = 0x10
	kindGetReply byte = 0x11
	kindPut      byte = 0x12
	kindPutAck   byte = 0x13
)

// CentralServer is the unreplicated store: a map guarded by a mutex,
// serving Get and Put over the same transports the ABD replicas use.
type CentralServer struct {
	id types.NodeID
	ep transport.Endpoint

	mu   sync.Mutex
	data map[string]types.Value

	started atomic.Bool
	done    chan struct{}
}

// NewCentralServer creates a central server on ep. The server takes
// ownership of the endpoint.
func NewCentralServer(id types.NodeID, ep transport.Endpoint) *CentralServer {
	return &CentralServer{
		id:   id,
		ep:   ep,
		data: make(map[string]types.Value),
		done: make(chan struct{}),
	}
}

// ID returns the server's node identifier.
func (s *CentralServer) ID() types.NodeID { return s.id }

// Start launches the message loop.
func (s *CentralServer) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	go s.loop()
}

// Stop closes the endpoint and waits for the loop to exit.
func (s *CentralServer) Stop() {
	if s.started.CompareAndSwap(false, true) {
		close(s.done)
		_ = s.ep.Close()
		return
	}
	_ = s.ep.Close()
	<-s.done
}

func (s *CentralServer) loop() {
	defer close(s.done)
	for raw := range s.ep.Recv() {
		if len(raw.Payload) == 0 {
			continue
		}
		r := wire.NewReader(raw.Payload[1:])
		op := r.Uint()
		reg := r.String()
		switch raw.Payload[0] {
		case kindGet:
			if r.Err() != nil {
				continue
			}
			s.mu.Lock()
			val := s.data[reg].Clone()
			s.mu.Unlock()
			var b []byte
			b = append(b, kindGetReply)
			b = wire.AppendUint(b, op)
			b = wire.AppendBytes(b, val)
			_ = s.ep.Send(raw.From, b)
		case kindPut:
			val := types.Value(r.Bytes())
			if r.Err() != nil {
				continue
			}
			s.mu.Lock()
			s.data[reg] = val
			s.mu.Unlock()
			var b []byte
			b = append(b, kindPutAck)
			b = wire.AppendUint(b, op)
			_ = s.ep.Send(raw.From, b)
		}
	}
}

// CentralClient talks to one CentralServer.
type CentralClient struct {
	id     types.NodeID
	ep     transport.Endpoint
	server types.NodeID

	opSeq   atomic.Uint64
	pendMu  sync.Mutex
	pending map[uint64]chan []byte // GetReply value (or nil for PutAck)

	started atomic.Bool
	done    chan struct{}
}

// NewCentralClient creates a client of the central server. The client takes
// ownership of the endpoint.
func NewCentralClient(id types.NodeID, ep transport.Endpoint, server types.NodeID) *CentralClient {
	c := &CentralClient{
		id:      id,
		ep:      ep,
		server:  server,
		pending: make(map[uint64]chan []byte),
		done:    make(chan struct{}),
	}
	c.start()
	return c
}

func (c *CentralClient) start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	go c.demux()
}

// Close shuts the client down.
func (c *CentralClient) Close() {
	if c.started.CompareAndSwap(false, true) {
		close(c.done)
		_ = c.ep.Close()
		return
	}
	_ = c.ep.Close()
	<-c.done
}

func (c *CentralClient) demux() {
	defer close(c.done)
	for raw := range c.ep.Recv() {
		if len(raw.Payload) == 0 {
			continue
		}
		kind := raw.Payload[0]
		if kind != kindGetReply && kind != kindPutAck {
			continue
		}
		r := wire.NewReader(raw.Payload[1:])
		op := r.Uint()
		var val []byte
		if kind == kindGetReply {
			val = r.Bytes()
		}
		if r.Err() != nil {
			continue
		}
		c.pendMu.Lock()
		ch, ok := c.pending[op]
		c.pendMu.Unlock()
		if !ok {
			continue
		}
		select {
		case ch <- val:
		default:
		}
	}
}

func (c *CentralClient) call(ctx context.Context, payload []byte, op uint64) ([]byte, error) {
	ch := make(chan []byte, 1)
	c.pendMu.Lock()
	c.pending[op] = ch
	c.pendMu.Unlock()
	defer func() {
		c.pendMu.Lock()
		delete(c.pending, op)
		c.pendMu.Unlock()
	}()

	if err := c.ep.Send(c.server, payload); err != nil {
		return nil, fmt.Errorf("send to server %v: %w", c.server, err)
	}
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("central server %v unavailable: %w", c.server, ctx.Err())
	}
}

// Read fetches a register's value from the server.
func (c *CentralClient) Read(ctx context.Context, reg string) (types.Value, error) {
	op := c.opSeq.Add(1)
	var b []byte
	b = append(b, kindGet)
	b = wire.AppendUint(b, op)
	b = wire.AppendString(b, reg)
	v, err := c.call(ctx, b, op)
	if err != nil {
		return nil, fmt.Errorf("read %q: %w", reg, err)
	}
	return v, nil
}

// Write stores a register's value on the server.
func (c *CentralClient) Write(ctx context.Context, reg string, val types.Value) error {
	op := c.opSeq.Add(1)
	var b []byte
	b = append(b, kindPut)
	b = wire.AppendUint(b, op)
	b = wire.AppendString(b, reg)
	b = wire.AppendBytes(b, val)
	if _, err := c.call(ctx, b, op); err != nil {
		return fmt.Errorf("write %q: %w", reg, err)
	}
	return nil
}
