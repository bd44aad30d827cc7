package baseline

import (
	"repro/internal/core"
	"repro/internal/quorum"
)

// ROWA returns the options of a read-one/write-all client of a group of n
// standard ABD replicas: reads contact a single replica (the client's
// minimal read quorum, rotating) and accept its answer; writes must reach
// every replica. Single-writer only — without a query phase and with read
// quorums of one, concurrent writers could fork timestamps.
//
// The point of this baseline (F2): one crashed replica permanently blocks
// all writes, while ABD sails through any minority of crashes. Reads under
// ROWA are also only *regular*, not atomic, while a write is in flight.
func ROWA(n int) []core.ClientOption {
	return []core.ClientOption{
		core.WithQuorum(quorum.NewReadOneWriteAll(n)),
		core.WithSingleWriter(),
		core.WithReadMode(core.ReadRegular),
	}
}
