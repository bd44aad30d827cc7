package main

import "time"

// workload is one traffic mix. Every field is frozen: a later change that
// claims a gain is measured against these inputs, so editing one is a
// benchmark change of its own (bench/README.md, "Calibration").
type workload struct {
	Name       string
	ReadFrac   float64 // share of operations that are reads
	Registers  int     // key space, all preloaded before the timer starts
	ZipfTheta  float64 // 0 = uniform; otherwise p(rank i) ∝ 1/(i+1)^θ
	ValueBytes int
	RefRate    float64 // arrivals/s of the steady window, about a third of the knee
	Crash      bool    // SIGKILL replica 2 early in the steady window, restart it late
	Why        string
}

// The reference rates were calibrated once, on the 2-core sandbox this
// repository grows in, to about a third of the rate at which the ladder
// fails (README, "Calibration"), rounded to two significant digits.
var workloads = []workload{
	{
		Name: "read-heavy", ReadFrac: 0.95, Registers: 1024, ValueBytes: 128, RefRate: 3000,
		Why: "95% reads, uniform over 1024 registers, 128 B: one-round fast-path reads with no fsync, so per-message costs (client phase, wire, tcpnet flush, query handler) set every number",
	},
	{
		Name: "write-heavy", ReadFrac: 0.10, Registers: 1024, ValueBytes: 4096, RefRate: 600,
		Why: "90% writes of 4 KiB, uniform over 1024 registers: query+update+fsync on every replica, so WAL group commit, compaction and per-byte costs set every number and the read fast path none",
	},
	{
		Name: "hot-mixed", ReadFrac: 0.50, Registers: 64, ZipfTheta: 0.99, ValueBytes: 128, RefRate: 1400,
		Why: "50/50 zipf(0.99) over 64 registers, 128 B: reads race in-flight writes on hot keys, so fast-path hits fall, write-backs, coalescing and absorption engage (the ROADMAP's writers ~ readers contention)",
	},
	{
		Name: "crash-mixed", ReadFrac: 0.50, Registers: 1024, ValueBytes: 128, RefRate: 1100, Crash: true,
		Why: "50/50 uniform over 1024 registers with replica 2 SIGKILLed then restarted on its WAL: the paper's claim that a minority crash fails no operation; exercises breaker, backoff, retransmit, replay",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Load shape shared by every workload (ISSUE 11, "Load shape").
const (
	replicas = 3
	// loadClientCount is one client per processor of the 2-core box the
	// reference rates were calibrated on. A constant, not runtime.NumCPU:
	// the schedule assigns arrivals to clients and must not change with
	// the machine.
	loadClientCount = 2
	maxInFlight     = 1024
	opTimeout       = 2 * time.Second
	latencyLimit    = 10 * time.Millisecond // a rung passes iff op p99 is at or under this
	ladderStep      = 1.06
	ladderFirstK    = 8
	ladderLastK     = 25
	auditRegs       = 8               // registers whose full history goes through lincheck …
	auditBudget     = 8 * time.Second // … each given an eighth of this; what lincheck leaves undecided, zoneCheck decides
	sliceLen        = time.Second     // the steady window's latency quantiles are taken per slice of this length …
	quietPick       = 0.10            // … and reported from the slice this far up the sorted slices
	rungSlices      = 3               // a ladder rung's p99 is the median over this many slices
)

// shape is how one run divides its measuring time. It is derived from
// -seconds so that the driver's run_seconds is the only knob.
//
// An end-to-end run spends all of it, after 1 s of warm-up, in the steady
// window: its metrics are medians over one-second slices, and the more
// slices the steadier they are. A per-layer run splits it into a shorter
// steady window (the counter deltas), the ladder, and a traced window; its
// latencies are never reported as end-to-end numbers.
type shape struct {
	Warmup  time.Duration
	Steady  time.Duration
	Recover time.Duration // cap on the wait for the restarted replica before the ladder (crash workloads)
	Rung    time.Duration
	Rungs   int
	Traced  time.Duration
}

// quick is the smoke-test shape: a 3 s steady window and three rungs, not
// comparable to anything.
func shapeFor(seconds float64, quick, layers bool) shape {
	total := time.Duration(seconds * float64(time.Second))
	s := shape{Warmup: time.Second}
	switch {
	case quick:
		s.Steady = 3 * time.Second
		if layers {
			s.Rungs, s.Rung, s.Traced, s.Recover = 3, 600*time.Millisecond, 2*time.Second, 6*time.Second
		}
	case layers:
		s.Steady = (total - s.Warmup) * 48 / 100
		s.Rungs = ladderLastK - ladderFirstK + 1
		s.Rung = (total - s.Warmup - s.Steady) / time.Duration(s.Rungs)
		s.Traced = 4 * time.Second
		s.Recover = 6 * time.Second
	default:
		s.Steady = total - s.Warmup
	}
	return s
}

// crashTimes places the crash workload's faults in a steady window: the
// kill a fifth of the way in, the restart 40% of the window later but never
// sooner than 9 s. tcpnet's breaker opens on the eighth straight failed
// redial, and with doubling backoff (50 ms … 3.2 s, ±25% jitter) that takes
// up to 7.9 s; an outage any shorter would leave the breaker untested. A
// window too short for that (-quick) restarts at 90%.
func crashTimes(steady time.Duration) (kill, restart time.Duration) {
	kill = steady / 5
	restart = kill + max(9*time.Second, steady*2/5)
	if limit := steady * 9 / 10; restart > limit {
		restart = limit
	}
	if kill >= restart {
		kill = restart / 2
	}
	return kill, restart
}
