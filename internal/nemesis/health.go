package nemesis

import (
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/prof"
)

// HealthReport is the health layer's verdict on one nemesis run: the
// workload clients' final health sample, the post-run replica lag picture,
// and where on the run's clock the alerts, captures and suspicions landed.
// The acceptance story: a faulted run raises alerts inside its fault
// windows, a fault-free control run stays silent.
type HealthReport struct {
	// Status is the monitor's last core.Fleet.Health sample over the
	// workload clients: the final SLO state, every alert raised during the
	// run in raise order (Alerts), the fleet-merged hot keys and, in
	// Byzantine mode, the liar verdict (Byzantine.Suspects: per replica, how
	// many of its replies were evidence no honest replica can produce, so a
	// replica named there lied). Lag is computed after the schedule unwound
	// and crashed replicas were restarted. ABD has no anti-entropy — a
	// recovered replica only knows what its own WAL held — so replicas that
	// missed writes while down stay visibly behind until read write-backs
	// repair them.
	health.Status
	// Start anchors the run's clock: Alert.At minus Start is the alert's
	// offset into the fault schedule.
	Start time.Time
	// Captures lists the flight-recorder captures completed during the run
	// (empty unless Config.Recorder was set). A faulted run captures inside
	// its fault windows; a fault-free control run captures nothing.
	Captures []prof.Capture
	// ByzTimeline records the clients' summed suspicion count at every
	// monitor sample, locating the evidence relative to the schedule's
	// fault windows.
	ByzTimeline []ByzSample
}

// ByzSample is one monitor observation of the clients' summed suspicions
// (the sum of Status.Byzantine.Suspects). At minus HealthReport.Start is the
// sample's offset into the fault schedule.
type ByzSample struct {
	At         time.Time
	Suspicions int64
}

// healthSLO is the objective a nemesis run tracks unless Config.SLO
// overrides it. The numbers are scaled to the harness's physics: healthy
// loopback operations finish in single-digit milliseconds, while a loss
// storm forces at least one 50ms retransmit floor and a latency spike adds
// 5-25ms per hop — so a 50ms bound cleanly separates fault windows from
// healthy traffic. The long window equals one schedule window, making
// "burn" mean "this fault episode is eating budget now".
func (c Config) healthSLO() health.SLO {
	if c.SLO != (health.SLO{}) {
		return c.SLO
	}
	return health.SLO{
		Name:       "nemesis-ops",
		Objective:  0.9,
		Latency:    50 * time.Millisecond,
		Window:     c.Window,
		PageBurn:   4,
		TicketBurn: 2,
	}
}

// monitorInterval is the health monitor's sampling period: a few samples
// per tracker bucket at the default window (700ms / 48 ≈ 15ms buckets).
const monitorInterval = 25 * time.Millisecond

// monitor samples the workload clients' health into an SLO tracker while
// the run is live, the same way a deployment would poll /status.
type monitor struct {
	fleet   core.Fleet
	tracker *health.Tracker
	rec     *prof.Recorder // nil-safe; triggered on fresh alerts
	stop    chan struct{}
	done    chan struct{}
	// byz is the per-sample Byzantine counter timeline. Only the monitor
	// goroutine appends (plus the seed sample before it starts and the
	// final one after it stops), so no lock is needed.
	byz []ByzSample
}

func startMonitor(fleet core.Fleet, slo health.SLO, rec *prof.Recorder) *monitor {
	m := &monitor{
		fleet:   fleet,
		tracker: health.NewTracker(slo),
		rec:     rec,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.sample(time.Now()) // seed the baseline before the workload starts
	go m.run()
	return m
}

func (m *monitor) run() {
	defer close(m.done)
	t := time.NewTicker(monitorInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-t.C:
			m.sample(now)
		}
	}
}

// sample takes one fleet health sample. It triggers the flight recorder
// once per fresh alert, so the profiles land while the burn that raised
// the alert is still in progress (the recorder's own cooldown and
// single-flight gate keep a sustained burn from capturing every 25ms), and
// extends the Byzantine timeline.
func (m *monitor) sample(now time.Time) health.Status {
	st, fresh := m.fleet.Health(m.tracker, now)
	for _, a := range fresh {
		m.rec.Trigger("slo-" + string(a.Severity))
	}
	if st.Byzantine != nil {
		s := ByzSample{At: now}
		for _, n := range st.Byzantine.Suspects {
			s.Suspicions += n
		}
		m.byz = append(m.byz, s)
	}
	return st
}

// drainCaptures waits out any in-flight flight-recorder capture and returns
// the completed set (nil recorder → nil).
func drainCaptures(rec *prof.Recorder) []prof.Capture {
	if rec == nil {
		return nil
	}
	rec.Wait()
	return rec.Captures()
}

// halt stops the monitor and returns its final sample.
func (m *monitor) halt() health.Status {
	close(m.stop)
	<-m.done
	return m.sample(time.Now())
}
