// Package reconfig adds configuration changes to the emulation — replacing
// the replica group while reads and writes continue — in the spirit of
// RAMBO (Lynch & Shvartsman), the "dynamic failures" follow-up the paper's
// history singles out. The full RAMBO service discovers configurations
// through consensus; this package implements the storage half with
// externally-coordinated migrations:
//
//  1. AddConfig: the new replica group becomes active alongside the old
//     one. From now on, every write installs its pair at a write quorum of
//     EVERY active configuration, and every read takes the maximum over a
//     read quorum of every active configuration (then writes it back
//     everywhere). Because each operation spans all active configurations,
//     any two operations share a quorum intersection in at least one of
//     them, preserving atomicity throughout the migration.
//  2. Transfer: each register is read once through the combined client,
//     which as a side effect installs its latest pair in the new
//     configuration's quorums.
//  3. RemoveConfig: the old configuration retires; operations now touch
//     only the new group. The retired replicas can be shut down.
//
// One migration at a time; the caller serializes reconfigurations (the
// consensus that RAMBO runs to agree on them is out of scope here and
// orthogonal to the register emulation being reproduced).
package reconfig

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/types"
)

// Member is one active configuration: an epoch number and a client bound to
// that configuration's replica group.
type Member struct {
	// Epoch identifies the configuration; strictly increasing across
	// migrations.
	Epoch int64
	// Client is a core client for the configuration's replica group. The
	// reconfig client owns it from AddConfig/NewClient on: Close closes it.
	Client *core.Client
}

// Client is a register client that spans all active configurations.
type Client struct {
	mu      sync.RWMutex
	members []Member
}

// NewClient creates a reconfigurable client with one initial configuration.
// The tags its writes carry come from its member clients.
func NewClient(initial Member) (*Client, error) {
	if initial.Client == nil {
		return nil, fmt.Errorf("reconfig: nil initial client")
	}
	return &Client{members: []Member{initial}}, nil
}

// Epochs returns the epochs of the currently active configurations, oldest
// first.
func (c *Client) Epochs() []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]int64, len(c.members))
	for i, m := range c.members {
		out[i] = m.Epoch
	}
	return out
}

// AddConfig activates a new configuration; subsequent operations span it.
// The new epoch must exceed every active epoch.
func (c *Client) AddConfig(m Member) error {
	if m.Client == nil {
		return fmt.Errorf("reconfig: nil client for epoch %d", m.Epoch)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cur := range c.members {
		if m.Epoch <= cur.Epoch {
			return fmt.Errorf("reconfig: epoch %d not newer than active epoch %d", m.Epoch, cur.Epoch)
		}
	}
	c.members = append(c.members, m)
	return nil
}

// RemoveConfig retires an active configuration and closes its client. At
// least one configuration must remain.
func (c *Client) RemoveConfig(epoch int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.members) <= 1 {
		return fmt.Errorf("reconfig: cannot remove the last configuration")
	}
	for i, m := range c.members {
		if m.Epoch == epoch {
			m.Client.Close()
			c.members = append(c.members[:i], c.members[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("reconfig: epoch %d not active", epoch)
}

// Close closes every active configuration's client.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		m.Client.Close()
	}
	c.members = nil
}

func (c *Client) snapshotMembers() ([]Member, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.members) == 0 {
		return nil, types.ErrClosed
	}
	out := make([]Member, len(c.members))
	copy(out, c.members)
	return out, nil
}

// queryAll returns the newest pair across read quorums of all active
// configurations.
func queryAll(ctx context.Context, members []Member, reg string) (core.Tag, types.Value, error) {
	var best core.Tag
	var bestVal types.Value
	for _, m := range members {
		tag, val, err := m.Client.QueryMax(ctx, reg)
		if err != nil {
			return core.Tag{}, nil, fmt.Errorf("reconfig epoch %d: %w", m.Epoch, err)
		}
		if tagLess(best, tag) {
			best = tag
			bestVal = val
		}
	}
	return best, bestVal, nil
}

// newestTag returns the newest tag across read quorums of all active
// configurations, asking for tags only: a write throws the values away.
func newestTag(ctx context.Context, members []Member, reg string) (core.Tag, error) {
	var best core.Tag
	for _, m := range members {
		tag, err := m.Client.QueryTag(ctx, reg)
		if err != nil {
			return core.Tag{}, fmt.Errorf("reconfig epoch %d: %w", m.Epoch, err)
		}
		if tagLess(best, tag) {
			best = tag
		}
	}
	return best, nil
}

// tagLess orders unbounded tags (reconfig does not support bounded mode).
func tagLess(a, b core.Tag) bool {
	if !b.Valid {
		return false
	}
	if !a.Valid {
		return true
	}
	return a.TS.Less(b.TS)
}

// propagateAll installs the pair at write quorums of all active
// configurations.
func propagateAll(ctx context.Context, members []Member, reg string, tag core.Tag, val types.Value) error {
	for _, m := range members {
		if err := m.Client.Propagate(ctx, reg, tag, val); err != nil {
			return fmt.Errorf("reconfig epoch %d: %w", m.Epoch, err)
		}
	}
	return nil
}

// Read performs an atomic read across all active configurations: global
// maximum over their read quorums, then write-back everywhere.
func (c *Client) Read(ctx context.Context, reg string) (types.Value, error) {
	members, err := c.snapshotMembers()
	if err != nil {
		return nil, err
	}
	tag, val, err := queryAll(ctx, members, reg)
	if err != nil {
		return nil, fmt.Errorf("read %q: %w", reg, err)
	}
	if !tag.Valid {
		return nil, nil
	}
	if err := propagateAll(ctx, members, reg, tag, val); err != nil {
		return nil, fmt.Errorf("read %q write-back: %w", reg, err)
	}
	return val, nil
}

// Write performs an atomic write across all active configurations.
func (c *Client) Write(ctx context.Context, reg string, val types.Value) error {
	members, err := c.snapshotMembers()
	if err != nil {
		return err
	}
	observed, err := newestTag(ctx, members, reg)
	if err != nil {
		return fmt.Errorf("write %q: %w", reg, err)
	}
	tag := members[0].Client.NextTagAfter(reg, observed)
	if err := propagateAll(ctx, members, reg, tag, val); err != nil {
		return fmt.Errorf("write %q: %w", reg, err)
	}
	return nil
}

// Transfer migrates the named registers into every active configuration by
// reading each through the combined client (the write-back is the state
// transfer). Call it after AddConfig and before RemoveConfig.
func (c *Client) Transfer(ctx context.Context, regs []string) error {
	for _, reg := range regs {
		if _, err := c.Read(ctx, reg); err != nil {
			return fmt.Errorf("transfer %q: %w", reg, err)
		}
	}
	return nil
}

// Register returns a handle bound to one named register.
func (c *Client) Register(name string) types.Register {
	return &Register{c: c, name: name}
}

var _ types.RW = (*Client)(nil)

// Register is a single-register handle over the reconfigurable client.
type Register struct {
	c    *Client
	name string
}

// Read reads the register.
func (r *Register) Read(ctx context.Context) (types.Value, error) {
	return r.c.Read(ctx, r.name)
}

// Write writes the register.
func (r *Register) Write(ctx context.Context, val types.Value) error {
	return r.c.Write(ctx, r.name, val)
}
