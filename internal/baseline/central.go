// Package baseline implements the comparison systems the evaluation runs
// ABD against. Each is a set of client options over the same replicas, so
// every system runs on the one in-process abd.Cluster:
//
//   - Central: a single unreplicated server. The availability floor — one
//     crash loses everything — and the latency floor: one round trip, two
//     messages per operation. It is ABD with a group of one: the server is a
//     plain replica (abd.NewCluster(1)), and a Central client writes from a
//     local counter and reads without a write-back, so each operation is one
//     phase to the one replica.
//   - ROWA (read-one/write-all), built from the core protocol with a
//     read-one quorum system, so a read asks one replica: reads are cheap, writes block
//     the moment a single replica crashes (experiment F2).
//   - The "regular" register — ABD without the read write-back — is a core
//     read mode (core.ReadRegular), not a separate system.
package baseline

import "repro/internal/core"

// Central returns the options of a client of the central server: a replica
// alone in its group. Several central clients may write the same register;
// each is a declared single writer, so concurrent writers are ordered by
// their local counters, not by real time — fine for throughput and
// availability comparisons, not an atomic multi-writer register.
func Central() []core.ClientOption {
	return []core.ClientOption{
		core.WithSingleWriter(),
		core.WithReadMode(core.ReadRegular),
	}
}
