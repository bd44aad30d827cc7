package main

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"time"
)

// opKind is what an arrival asks the load generator to do.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	// evKill and evRestart are not operations: they are the crash
	// workload's fault events, carried in the schedule so that they fire on
	// the schedule's clock, at the same index for a given seed.
	evKill
	evRestart
)

// arrival is one precomputed open-loop arrival. Due is an offset from the
// start of the arrival's phase; latency is timed from it, not from the
// moment the generator got round to sending (no coordinated omission).
type arrival struct {
	Due    time.Duration
	Kind   opKind
	Client uint8  // which of the loadgen's clients issues it
	Reg    uint32 // register index
}

// phaseSpec is one constant-rate stretch of a run.
type phaseSpec struct {
	Name string
	Rate float64 // arrivals per second
	Dur  time.Duration
}

// phase is a phaseSpec with its slice of the schedule: arrivals
// [First, End) belong to it.
type phase struct {
	phaseSpec
	First, End int
}

// schedule is every arrival of a run, phase by phase. Write values are not
// stored: a write's value is a pure function of its index (see values.go).
type schedule struct {
	Arrivals []arrival
	Phases   []phase
}

// zipfCDF returns the cumulative distribution over n ranks with
// p(i) ∝ 1/(i+1)^theta. math/rand's Zipf needs an exponent above 1; the
// workloads use 0.99, so the table is built here.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// buildSchedule draws the Poisson arrivals of every phase from seed. The
// same (workload, seed, phases, clients) gives a byte-identical schedule.
func buildSchedule(w workload, seed int64, specs []phaseSpec, clients int) *schedule {
	rng := rand.New(rand.NewSource(seed))
	var cdf []float64
	if w.ZipfTheta > 0 {
		cdf = zipfCDF(w.Registers, w.ZipfTheta)
	}
	s := &schedule{}
	for _, spec := range specs {
		ph := phase{phaseSpec: spec, First: len(s.Arrivals)}
		gap := float64(time.Second) / spec.Rate
		for t := rng.ExpFloat64() * gap; t < float64(spec.Dur); t += rng.ExpFloat64() * gap {
			a := arrival{Due: time.Duration(t), Kind: opWrite, Client: uint8(rng.Intn(clients))}
			if rng.Float64() < w.ReadFrac {
				a.Kind = opRead
			}
			if cdf != nil {
				a.Reg = uint32(sort.SearchFloat64s(cdf, rng.Float64()))
			} else {
				a.Reg = uint32(rng.Intn(w.Registers))
			}
			s.Arrivals = append(s.Arrivals, a)
		}
		ph.End = len(s.Arrivals)
		s.Phases = append(s.Phases, ph)
	}
	return s
}

// insertEvent places a fault event into phase p at offset due, keeping the
// phase's arrivals ordered by due time and every phase's index range right.
func (s *schedule) insertEvent(p int, due time.Duration, kind opKind) {
	ph := s.Phases[p]
	at := ph.First + sort.Search(ph.End-ph.First, func(i int) bool { return s.Arrivals[ph.First+i].Due >= due })
	s.Arrivals = append(s.Arrivals, arrival{})
	copy(s.Arrivals[at+1:], s.Arrivals[at:])
	s.Arrivals[at] = arrival{Due: due, Kind: kind}
	s.Phases[p].End++
	for q := p + 1; q < len(s.Phases); q++ {
		s.Phases[q].First++
		s.Phases[q].End++
	}
}

// bytes serialises the schedule; the determinism test compares these.
func (s *schedule) bytes() []byte {
	out := make([]byte, 0, 14*len(s.Arrivals))
	for _, a := range s.Arrivals {
		out = binary.LittleEndian.AppendUint64(out, uint64(a.Due))
		out = append(out, byte(a.Kind), a.Client)
		out = binary.LittleEndian.AppendUint32(out, a.Reg)
	}
	for _, p := range s.Phases {
		out = binary.LittleEndian.AppendUint64(out, uint64(p.First))
		out = binary.LittleEndian.AppendUint64(out, uint64(p.End))
	}
	return out
}
