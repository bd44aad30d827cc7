package health

import "sort"

// Tag is the health layer's projection of a replica's installed tag for
// one register: the (sequence, writer) pair that totally orders writes.
// Unbounded replicas report the timestamp's sequence number; bounded-mode
// replicas report their label counter, which grows the same way. Larger
// Seq means newer; Writer breaks ties.
type Tag struct {
	Seq    int64 `json:"seq"`
	Writer int64 `json:"writer"`
}

// Less orders tags: by Seq, then Writer (the protocol's tag order).
func (t Tag) Less(o Tag) bool {
	if t.Seq != o.Seq {
		return t.Seq < o.Seq
	}
	return t.Writer < o.Writer
}

// ReplicaTags is one replica's watermark report: its node id and the max
// installed tag per sampled register.
type ReplicaTags struct {
	Node int64          `json:"node"`
	Tags map[string]Tag `json:"tags"`
}

// ReplicaLag summarizes one replica's divergence from the quorum-confirmed
// watermarks: how many registers it was behind on and the worst sequence
// gap. A crashed or straggling replica shows Behind > 0 while the quorum
// keeps moving.
type ReplicaLag struct {
	Node      int64 `json:"node"`
	Sampled   int   `json:"sampled"`
	Behind    int   `json:"behind"`
	MaxSeqLag int64 `json:"max_seq_lag"`
}

// RegisterLag is the per-register view: the quorum-confirmed tag and which
// replicas are behind it.
type RegisterLag struct {
	Reg       string  `json:"reg"`
	Confirmed Tag     `json:"confirmed"`
	Behind    []int64 `json:"behind,omitempty"`
}

// LagReport is the cluster's lag picture computed from per-replica
// watermark reports; see ComputeLag.
type LagReport struct {
	Quorum    int           `json:"quorum"`
	Replicas  []ReplicaLag  `json:"replicas"`
	Registers []RegisterLag `json:"registers,omitempty"`
}

// MaxSeqLag returns the worst per-replica sequence lag in the report.
func (r LagReport) MaxSeqLag() int64 {
	var max int64
	for _, rl := range r.Replicas {
		if rl.MaxSeqLag > max {
			max = rl.MaxSeqLag
		}
	}
	return max
}

// TotalBehind returns the summed behind-register count across replicas.
func (r LagReport) TotalBehind() int {
	var n int
	for _, rl := range r.Replicas {
		n += rl.Behind
	}
	return n
}

// GroupLag computes the lag of independent replica groups and concatenates
// their reports. Each group is its own ABD instance, so "behind the quorum"
// is only meaningful within a group: groups[g] holds group g's watermark
// reports, and quorum is one group's.
func GroupLag(groups [][]ReplicaTags, quorum, topRegs int) LagReport {
	out := LagReport{Quorum: quorum}
	for _, reports := range groups {
		gl := ComputeLag(reports, quorum, topRegs)
		out.Replicas = append(out.Replicas, gl.Replicas...)
		out.Registers = append(out.Registers, gl.Registers...)
	}
	return out
}

// ComputeLag derives per-replica divergence from a set of watermark
// reports. For each register named by any report, the confirmed tag is the
// quorum-th largest reported tag — the newest write a majority provably
// installed, which ABD's write-phase quorum guarantees is (at least as new
// as) the last completed write. A replica is behind on a register when its
// reported tag (zero if the register is missing from its report) is older
// than the confirmed tag. topRegs > 0 bounds the Registers detail to the
// worst offenders (largest confirmed Seq first); the per-replica summary
// always covers every register.
//
// quorum is clamped into [1, len(reports)]. Fewer reports than a real
// quorum would make the "confirmed" tag an overclaim, so callers should
// pass every live replica's report.
func ComputeLag(reports []ReplicaTags, quorum, topRegs int) LagReport {
	if quorum < 1 {
		quorum = 1
	}
	if quorum > len(reports) && len(reports) > 0 {
		quorum = len(reports)
	}
	out := LagReport{Quorum: quorum}
	if len(reports) == 0 {
		return out
	}

	regs := make(map[string]struct{})
	for _, rep := range reports {
		for reg := range rep.Tags {
			regs[reg] = struct{}{}
		}
	}

	perReplica := make(map[int64]*ReplicaLag, len(reports))
	order := make([]int64, 0, len(reports))
	for _, rep := range reports {
		if _, ok := perReplica[rep.Node]; !ok {
			perReplica[rep.Node] = &ReplicaLag{Node: rep.Node}
			order = append(order, rep.Node)
		}
	}

	tags := make([]Tag, 0, len(reports))
	for reg := range regs {
		tags = tags[:0]
		for _, rep := range reports {
			tags = append(tags, rep.Tags[reg]) // zero Tag when missing
		}
		sort.Slice(tags, func(i, j int) bool { return tags[j].Less(tags[i]) })
		confirmed := tags[quorum-1]

		rl := RegisterLag{Reg: reg, Confirmed: confirmed}
		for _, rep := range reports {
			pr := perReplica[rep.Node]
			pr.Sampled++
			have := rep.Tags[reg]
			if have.Less(confirmed) {
				pr.Behind++
				rl.Behind = append(rl.Behind, rep.Node)
				if gap := confirmed.Seq - have.Seq; gap > pr.MaxSeqLag {
					pr.MaxSeqLag = gap
				}
			}
		}
		sort.Slice(rl.Behind, func(i, j int) bool { return rl.Behind[i] < rl.Behind[j] })
		out.Registers = append(out.Registers, rl)
	}

	sort.Slice(out.Registers, func(i, j int) bool {
		ri, rj := out.Registers[i], out.Registers[j]
		if ri.Confirmed.Seq != rj.Confirmed.Seq {
			return ri.Confirmed.Seq > rj.Confirmed.Seq
		}
		return ri.Reg < rj.Reg
	})
	if topRegs > 0 && len(out.Registers) > topRegs {
		out.Registers = out.Registers[:topRegs]
	}

	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, node := range order {
		out.Replicas = append(out.Replicas, *perReplica[node])
	}
	return out
}
