package baseline

import (
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// NewROWAClient builds a read-one/write-all client over the standard ABD
// replicas: reads contact a single replica (the client's minimal read
// quorum, rotating) and accept its answer; writes must reach every
// replica. Single-writer only — without a query phase and with read quorums
// of one, concurrent writers could fork timestamps.
//
// The point of this baseline (F2): one crashed replica permanently blocks
// all writes, while ABD sails through any minority of crashes. Reads under
// ROWA are also only *regular*, not atomic, while a write is in flight.
func NewROWAClient(id types.NodeID, ep transport.Endpoint, replicas []types.NodeID) (*core.Client, error) {
	return core.NewClient(id, ep, replicas,
		core.WithQuorum(quorum.NewReadOneWriteAll(len(replicas))),
		core.WithSingleWriter(),
		core.WithReadMode(core.ReadRegular),
	)
}
