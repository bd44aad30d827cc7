package nemesis

import (
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/failure"
	"repro/internal/health"
	"repro/internal/lincheck"
)

// TestNemesisHealthAlerts is the health layer's end-to-end acceptance run:
// across three seeds, a schedule whose every fault window breaches the 50ms
// latency objective by construction (sloBreachSchedule) must raise a page
// alert inside a fault window; a fault-free control run of the same workload
// must stay completely silent.
func TestNemesisHealthAlerts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tcpnet runs")
	}
	const windows = 4
	window := 700 * time.Millisecond

	for _, seed := range []int64{1, 3, 5} {
		res, err := Run(context.Background(), Config{
			Seed: seed, Windows: windows, Window: window,
			Schedule: sloBreachSchedule(windows, window),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Outcome == lincheck.NotLinearizable {
			t.Fatalf("seed %d: history not linearizable", seed)
		}
		if !pageInWindow(res.Health, windows, window) {
			t.Fatalf("seed %d: no page alert inside a fault window: %+v", seed, res.Health.Alerts)
		}

		// The rest of the report rode along: hot keys name the workload
		// register, and every live replica filed a watermark report.
		if len(res.Health.HotKeys) == 0 || res.Health.HotKeys[0].Key != "r0" {
			t.Fatalf("seed %d: hot keys = %+v, want r0 on top", seed, res.Health.HotKeys)
		}
		if res.Health.HotKeyTotal == 0 {
			t.Fatalf("seed %d: empty hot-key sketch", seed)
		}
		if len(res.Health.Lag.Replicas) != 5 {
			t.Fatalf("seed %d: lag report covers %d replicas, want 5",
				seed, len(res.Health.Lag.Replicas))
		}
		if res.Health.Lag.Quorum != 3 {
			t.Fatalf("seed %d: lag quorum = %d, want 3", seed, res.Health.Lag.Quorum)
		}
	}

	// Control: identical workload, empty (non-nil) schedule — no faults.
	// Healthy loopback operations finish far under the 50ms objective, so
	// any alert here is a false positive.
	res, err := Run(context.Background(), Config{
		Seed: 1, Windows: windows, Window: window, Schedule: failure.Schedule{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == lincheck.NotLinearizable {
		t.Fatal("control: history not linearizable")
	}
	if len(res.Health.Alerts) != 0 {
		t.Fatalf("control run raised alerts: %+v", res.Health.Alerts)
	}
	if res.Health.SLO.PageActive || res.Health.SLO.TicketActive {
		t.Fatalf("control run ended with active severities: %+v", res.Health.SLO)
	}
}

// sloBreachSchedule injects, in each of windows fault windows, a link delay
// on every link whose single round trip (80ms at least) already exceeds the
// 50ms objective, so every operation inside the window is slow whatever the
// host's speed. Episodes cover the middle three quarters of each window,
// the interval pageInWindow checks.
func sloBreachSchedule(windows int, window time.Duration) failure.Schedule {
	var sched failure.Schedule
	for w := 0; w < windows; w++ {
		start := time.Duration(w)*window + window/8
		end := time.Duration(w+1)*window - window/8
		sched = append(sched,
			failure.Event{At: start, Action: failure.LinkFaults{All: true,
				Faults: chaos.Faults{DelayMin: 40 * time.Millisecond, DelayMax: 60 * time.Millisecond}}},
			failure.Event{At: end, Action: failure.LinkFaults{All: true}})
	}
	return sched
}

// inWindow reports whether offset off into the schedule falls inside a
// fault episode's active interval [w*W + W/8, (w+1)*W - W/8].
func inWindow(off time.Duration, windows int, window time.Duration) bool {
	w := int(off / window)
	frac := float64(off%window) / float64(window)
	return w < windows && frac >= 0.125 && frac <= 0.875
}

// pageInWindow reports whether the run raised a page alert inside a fault
// episode.
func pageInWindow(h HealthReport, windows int, window time.Duration) bool {
	for _, a := range h.Alerts {
		if a.Severity == health.SeverityPage && inWindow(a.At.Sub(h.Start), windows, window) {
			return true
		}
	}
	return false
}
