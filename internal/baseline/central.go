// Package baseline implements the comparison systems the evaluation runs
// ABD against:
//
//   - Central: a single unreplicated server. The availability floor — one
//     crash loses everything — and the latency floor: one round trip, two
//     messages per operation. It is ABD with a group of one: the server is a
//     plain core.Replica, and NewCentral's client writes from a local
//     counter and reads without a write-back, so each operation is one
//     phase to the one replica.
//   - ROWA (read-one/write-all), built from the core protocol with a
//     read-one quorum system, so a read asks one replica: reads are cheap, writes block
//     the moment a single replica crashes (experiment F2).
//   - The "regular" register — ABD without the read write-back — is a core
//     read mode (core.ReadRegular), not a separate system.
package baseline

import (
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/types"
)

// NewCentral builds a client of the central server: a core replica running
// as node server, alone in its group. Several central clients may write the
// same register; each is a declared single writer, so concurrent writers are
// ordered by their local counters, not by real time — fine for throughput
// and availability comparisons, not an atomic multi-writer register.
func NewCentral(id types.NodeID, ep transport.Endpoint, server types.NodeID) (*core.Client, error) {
	return core.NewClient(id, ep, []types.NodeID{server},
		core.WithSingleWriter(),
		core.WithReadMode(core.ReadRegular),
	)
}
