// Package transport defines the interface between the ABD protocol layer and
// the underlying message-passing substrate. Two substrates implement it:
// internal/netsim (a simulated asynchronous network with fault injection) and
// internal/tcpnet (real TCP sockets). The protocol layer is written against
// this package only, so the same replica and client code runs on both — the
// property the paper's emulation theorem is about.
package transport

import "repro/internal/types"

// Message is the envelope delivered to an endpoint. Payload is opaque to the
// transport; the protocol layer encodes it with internal/wire.
type Message struct {
	From    types.NodeID
	To      types.NodeID
	Payload []byte
}

// Endpoint is one processor's attachment to the network. Send is
// asynchronous and never blocks on the receiver (the model's channels are
// reliable but arbitrarily slow). Recv yields incoming messages in delivery
// order until the endpoint is closed, after which the channel is closed. An
// endpoint that is also a Dispatcher can deliver them without the channel.
type Endpoint interface {
	// ID returns the node this endpoint belongs to.
	ID() types.NodeID
	// Send enqueues a message to the given node. It returns an error only
	// for local conditions (endpoint closed, unknown destination); loss and
	// delay in transit are the substrate's business.
	Send(to types.NodeID, payload []byte) error
	// Recv returns the channel of incoming messages. The channel is closed
	// after Close.
	Recv() <-chan Message
	// Close detaches the endpoint. Safe to call more than once.
	Close() error
}

// Dispatcher is implemented by endpoints that can hand each incoming
// message to a handler on the goroutine that received it, sparing the
// hand-off through Recv (tcpnet; chaos forwards to the endpoint it wraps).
// It is optional: the protocol layer installs its handler when the endpoint
// is a Dispatcher and ranges over Recv either way.
type Dispatcher interface {
	// Dispatch installs h. From then on the endpoint calls h for incoming
	// messages, possibly from several goroutines at once, instead of
	// queueing them for Recv; messages that arrived earlier, and all
	// messages of an endpoint that cannot dispatch after all, still come
	// out of Recv, so the caller keeps reading it. The endpoint closes the
	// Recv channel only after the last call of h has returned, which makes
	// that close the one shutdown signal for both routes.
	Dispatch(h func(Message))
}
