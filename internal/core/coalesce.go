package core

import (
	"context"
	"fmt"

	"repro/internal/types"
)

// Client-side operation coalescing: the third stage of the throughput
// pipeline (wire batching and replica group commit are the other two).
//
// Concurrent reads of the same register issued through one Client share a
// single quorum round: one reader becomes the round leader and runs the
// ordinary two-phase read; the others adopt its result. This is safe
// because of the join rule enforced below — a reader may only join a round
// whose broadcast has not yet started. The leader marks the round started
// (under the same mutex joiners use) before its first send, so the shared
// round lies entirely inside every participant's invocation/response
// interval and all of them may linearize at the round's point. The round
// includes the read's write-back, so adopted values are as propagated as
// any other read's.
//
// Concurrent multi-writer writes of the same register are absorbed the
// same way: queued writes share one query phase and one update carrying
// the LAST queued value. The absorbed predecessors linearize immediately
// before it — they were overwritten before any reader could have been
// obliged to observe them, which is a legal ordering exactly because all
// the writes are concurrent with each other. Single-writer and bounded
// modes keep their dedicated fast paths and never absorb.
//
// Leadership is a token in a 1-buffered channel. Every participant selects
// on token/done/ctx, so an abandoned round (leader-to-be timed out) hands
// leadership to the next waiter — or to a future joiner — instead of
// wedging the register.

// opRound is one shared quorum round for a register.
type opRound struct {
	token   chan struct{} // cap 1; receiving it = you lead the round
	done    chan struct{} // closed once val/err are published
	started bool          // guarded by the owning map's mutex
	next    *opRound      // round for arrivals after this one started
	vals    []types.Value // write rounds: queued values, arrival order
	val     types.Value   // read rounds: the round's result
	err     error
}

// newOpRound creates a round. The first round for a register carries its
// leadership token from birth; a "next" round receives it only when the
// current round's leader promotes it (so it cannot start early).
func newOpRound(leadable bool) *opRound {
	r := &opRound{token: make(chan struct{}, 1), done: make(chan struct{})}
	if leadable {
		r.token <- struct{}{}
	}
	return r
}

// joinRound returns the round an operation arriving now may share: the
// current one if its broadcast has not started, else the (possibly new)
// next round. Callers hold nothing; the map mutex is taken here.
func (c *Client) joinRound(rounds map[string]*opRound, reg string) *opRound {
	r := rounds[reg]
	switch {
	case r == nil:
		r = newOpRound(true)
		rounds[reg] = r
	case r.started:
		if r.next == nil {
			r.next = newOpRound(false)
		}
		r = r.next
	}
	return r
}

// finishRound publishes the round's result and hands the register to the
// successor round (granting it the leadership token) or clears it.
func (c *Client) finishRound(rounds map[string]*opRound, reg string, r *opRound, val types.Value, err error) {
	c.coMu.Lock()
	if r.next != nil {
		rounds[reg] = r.next
		r.next.token <- struct{}{}
	} else {
		delete(rounds, reg)
	}
	c.coMu.Unlock()
	r.val, r.err = val, err
	close(r.done)
}

// readCoalesced is Read's body: join (or open) the register's current
// round, then either lead it or adopt its result.
func (c *Client) readCoalesced(ctx context.Context, reg string, ot opTrace) (types.Value, error) {
	for {
		c.coMu.Lock()
		r := c.joinRound(c.rdRounds, reg)
		c.coMu.Unlock()

		select {
		case <-r.token:
			// Leader: freeze the membership, then run the normal read.
			c.coMu.Lock()
			r.started = true
			c.coMu.Unlock()
			val, err := c.read(ctx, reg, ot)
			c.finishRound(c.rdRounds, reg, r, val, err)
			return val, err
		case <-r.done:
			if r.err == nil {
				c.metrics.reads.Add(1)
				c.metrics.coalescedReads.Add(1)
				return r.val.Clone(), nil
			}
			// The round failed — typically on the leader's deadline, which
			// says nothing about ours. Retry with a fresh round.
			if ctx.Err() != nil {
				return nil, r.err
			}
		case <-ctx.Done():
			return nil, fmt.Errorf("read %q: %w", reg, ctx.Err())
		}
	}
}

// writeAbsorbed is Write's body for multi-writer clients: queue the value
// into the register's current round, then either lead the round or ride the
// leader's acknowledgement.
func (c *Client) writeAbsorbed(ctx context.Context, reg string, val types.Value, ot opTrace) error {
	for {
		c.coMu.Lock()
		r := c.joinRound(c.wrRounds, reg)
		r.vals = append(r.vals, val)
		c.coMu.Unlock()

		select {
		case <-r.token:
			// Leader: freeze the membership, then write the last queued value
			// on behalf of every queued write (r.vals is immutable once
			// started, since no joiner appends anymore).
			c.coMu.Lock()
			r.started = true
			last := r.vals[len(r.vals)-1]
			c.coMu.Unlock()
			err := c.write(ctx, reg, last, ot)
			c.finishRound(c.wrRounds, reg, r, nil, err)
			return err
		case <-r.done:
			if r.err == nil {
				c.metrics.writes.Add(1)
				c.metrics.absorbedWrites.Add(1)
				return nil
			}
			if ctx.Err() != nil {
				return r.err
			}
		case <-ctx.Done():
			return fmt.Errorf("write %q: %w", reg, ctx.Err())
		}
	}
}
