package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/lincheck"
)

// The open-loop invariants, checked without a cluster: the whole file runs
// in well under a second.

func testSpecs() []phaseSpec {
	return []phaseSpec{
		{Name: "warm-up", Rate: 2000, Dur: time.Second},
		{Name: "steady", Rate: 2000, Dur: 20 * time.Second},
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := buildSchedule(w, 7, testSpecs(), 2).bytes()
		b := buildSchedule(w, 7, testSpecs(), 2).bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different schedules", w.Name)
		}
		if c := buildSchedule(w, 8, testSpecs(), 2).bytes(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.Name)
		}
	}
}

func TestScheduleMatchesSpec(t *testing.T) {
	for _, w := range workloads {
		s := buildSchedule(w, 3, testSpecs(), 2)
		steady := s.Phases[1]
		n := steady.End - steady.First
		if want := 2000 * 20; math.Abs(float64(n-want)) > 0.02*float64(want) {
			t.Errorf("%s: %d arrivals in 20 s at 2000/s", w.Name, n)
		}
		reads := 0
		perReg := make([]int, w.Registers)
		var last time.Duration
		for _, a := range s.Arrivals[steady.First:steady.End] {
			if a.Due < last || a.Due >= steady.Dur {
				t.Fatalf("%s: due times out of order or out of the phase", w.Name)
			}
			last = a.Due
			if a.Kind == opRead {
				reads++
			}
			perReg[a.Reg]++
		}
		if got := float64(reads) / float64(n); math.Abs(got-w.ReadFrac) > 0.01 {
			t.Errorf("%s: read share %.3f, spec %.2f", w.Name, got, w.ReadFrac)
		}
		// Skew: the hottest register's share against the distribution's.
		want := 1 / float64(w.Registers)
		if w.ZipfTheta > 0 {
			want = zipfCDF(w.Registers, w.ZipfTheta)[0]
		}
		if got := float64(perReg[0]) / float64(n); math.Abs(got-want) > 0.01 {
			t.Errorf("%s: register 0 drew %.3f of the arrivals, spec %.3f", w.Name, got, want)
		}
		if w.ZipfTheta > 0 {
			// The second half of the key space together, too.
			var tail int
			for _, c := range perReg[w.Registers/2:] {
				tail += c
			}
			cdf := zipfCDF(w.Registers, w.ZipfTheta)
			wantTail := 1 - cdf[w.Registers/2-1]
			if got := float64(tail) / float64(n); math.Abs(got-wantTail) > 0.01 {
				t.Errorf("%s: cold half drew %.3f of the arrivals, spec %.3f", w.Name, got, wantTail)
			}
		}
	}
}

func TestInsertEventKeepsPhasesAligned(t *testing.T) {
	w, _ := findWorkload("crash-mixed")
	s := buildSchedule(w, 1, testSpecs(), 2)
	before := len(s.Arrivals)
	s.insertEvent(1, 4*time.Second, evKill)
	s.insertEvent(1, 13*time.Second, evRestart)
	if len(s.Arrivals) != before+2 || s.Phases[1].End != len(s.Arrivals) {
		t.Fatalf("events not accounted for: %d arrivals, steady ends at %d", len(s.Arrivals), s.Phases[1].End)
	}
	kills := 0
	var last time.Duration
	for _, a := range s.Arrivals[s.Phases[1].First:s.Phases[1].End] {
		if a.Due < last {
			t.Fatal("an event broke the due-time order")
		}
		last = a.Due
		if a.Kind == evKill {
			kills++
			if a.Due != 4*time.Second {
				t.Errorf("kill due at %v", a.Due)
			}
		}
	}
	if kills != 1 {
		t.Errorf("%d kill events", kills)
	}
	// The same seed puts the events at the same index.
	s2 := buildSchedule(w, 1, testSpecs(), 2)
	s2.insertEvent(1, 4*time.Second, evKill)
	s2.insertEvent(1, 13*time.Second, evRestart)
	if !bytes.Equal(s.bytes(), s2.bytes()) {
		t.Error("fault events land at different indexes for the same seed")
	}
}

func TestCrashTimesLeaveTheBreakerTimeToOpen(t *testing.T) {
	for _, steady := range []time.Duration{25 * time.Second, 12 * time.Second} {
		kill, restart := crashTimes(steady)
		if restart-kill < 8*time.Second || restart >= steady || kill <= 0 {
			t.Errorf("steady %v: kill at %v, restart at %v", steady, kill, restart)
		}
	}
	if kill, restart := crashTimes(3 * time.Second); !(0 < kill && kill < restart && restart < 3*time.Second) {
		t.Errorf("quick window: kill at %v, restart at %v", kill, restart)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	v := make([]time.Duration, 100)
	for i := range v {
		v[i] = time.Duration(i+1) * time.Millisecond
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{0.50, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0.001, time.Millisecond}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%.3f = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}

func TestSlicedPercentileIgnoresStalls(t *testing.T) {
	// Ten seconds at 1000/s, every operation 1 ms, except a 40 ms stall in
	// second 3 that delays the 200 operations around it.
	var ops []timed
	for i := 0; i < 10000; i++ {
		op := timed{Due: time.Duration(i) * time.Millisecond, Lat: time.Millisecond}
		if i >= 3000 && i < 3200 {
			op.Lat = 40 * time.Millisecond
		}
		ops = append(ops, op)
	}
	if got := wholePercentile(ops, 0.99); got != 40*time.Millisecond {
		t.Fatalf("whole-window p99 = %v: the stall should own it", got)
	}
	for _, pick := range []float64{0.5, quietPick} {
		if got := slicedPercentile(ops, 10*time.Second, 10, 0.99, pick); got != time.Millisecond {
			t.Errorf("sliced p99 (pick %v) = %v, want 1ms", pick, got)
		}
	}
	// Seven noisy seconds out of ten do not move the quiet-slice statistic,
	// though they own the median slice.
	for i := range ops {
		if i >= 3000 {
			ops[i].Lat = 5 * time.Millisecond
		}
	}
	if got := slicedPercentile(ops, 10*time.Second, 10, 0.50, 0.5); got != 5*time.Millisecond {
		t.Errorf("median slice p50 = %v, want 5ms", got)
	}
	if got := quietPercentile(ops, 10*time.Second, 0.50); got != time.Millisecond {
		t.Errorf("quiet slice p50 = %v, want 1ms", got)
	}
	// A slowdown of every operation is not hidden.
	for i := range ops {
		ops[i].Lat = 5 * time.Millisecond
	}
	if got := quietPercentile(ops, 10*time.Second, 0.50); got != 5*time.Millisecond {
		t.Errorf("quiet slice p50 after a lasting slowdown = %v, want 5ms", got)
	}
}

func TestRungVerdict(t *testing.T) {
	ok := rungStats{Arrivals: 1000, P99: 9 * time.Millisecond, Backlog: 10}
	for name, c := range map[string]struct {
		r    rungStats
		pass bool
	}{
		"within every limit":   {ok, true},
		"p99 at the limit":     {rungStats{Arrivals: 1000, P99: latencyLimit}, true},
		"p99 over the limit":   {rungStats{Arrivals: 1000, P99: latencyLimit + 1}, false},
		"one failed operation": {rungStats{Arrivals: 1000, P99: time.Millisecond, Failed: 1}, false},
		"backlog of 1%":        {rungStats{Arrivals: 1000, P99: time.Millisecond, Backlog: 10}, true},
		"backlog over 1%":      {rungStats{Arrivals: 1000, P99: time.Millisecond, Backlog: 11}, false},
		"a failure as latency": {rungStats{Arrivals: 1000, P99: failedLatency}, false},
		"nothing arrived":      {rungStats{}, false},
	} {
		if got := c.r.passes(); got != c.pass {
			t.Errorf("%s: passes = %v", name, got)
		}
	}
	bad := rungStats{Arrivals: 1000, P99: time.Second}
	// max_rate_ops_s is the last rung before the first failure, whatever
	// came after it.
	if got := passedRungs([]rungStats{ok, ok, bad, ok}); got != 2 {
		t.Errorf("rungs passed before the first failure = %d, want 2", got)
	}
	if got := passedRungs([]rungStats{ok, ok}); got != 2 {
		t.Errorf("a ladder that ran out of rungs: %d passed, want 2", got)
	}
	if got := passedRungs([]rungStats{bad, ok}); got != 0 {
		t.Errorf("first rung failed: %d passed, want 0", got)
	}
	if got, want := ladderRate(1000, 12), 1000*math.Pow(1.06, 12); math.Abs(got-want) > 1e-9 {
		t.Errorf("ladderRate = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 31.0", q1, q3)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

// TestLatencyRunsFromDueTime is the coordinated-omission test. The stub
// system serves one operation at a time; the first one stalls it for 50 ms.
// A generator that timed operations from when it got round to them — or
// one that waited for the stall before sending the next — would report the
// operations due during the stall as fast. Timed from their due time they
// must each show what was left of the stall.
func TestLatencyRunsFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	s := &schedule{
		Phases: []phase{{phaseSpec: phaseSpec{Name: "steady", Rate: 100, Dur: 80 * time.Millisecond}, First: 0, End: 6}},
	}
	for i := 0; i < 6; i++ {
		s.Arrivals = append(s.Arrivals, arrival{Due: time.Duration(i) * 10 * time.Millisecond, Kind: opRead})
	}
	var server sync.Mutex
	g := newGenerator(s, func(ctx context.Context, i int, a arrival) (bool, error) {
		server.Lock()
		defer server.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return false, nil
	})
	g.runPhase(0, nil)
	g.wait()
	for i := 1; i <= 4; i++ {
		r := &g.results[i]
		if r.Status() != stOK {
			t.Fatalf("op %d: status %d", i, r.Status())
		}
		if r.Lag > 8*time.Millisecond {
			t.Skipf("op %d was dispatched %v late: this machine is too loaded for a timing test", i, r.Lag)
		}
		left := stall - s.Arrivals[i].Due
		if r.Lat < left-2*time.Millisecond {
			t.Errorf("op %d, due %v into a %v stall, reports %v: latency is not running from the due time",
				i, s.Arrivals[i].Due, stall, r.Lat)
		}
	}
	// The operation due after the stall is not inflated by it.
	if lat := g.results[5].Lat; lat > 25*time.Millisecond {
		t.Logf("op 5 (due after the stall) took %v", lat)
	}
	sm := g.samples(0)
	if sm.Attempted != 6 || sm.Failed != 0 || sm.Completed != 6 {
		t.Errorf("samples: %+v", sm)
	}
}

func TestShedOverTheInFlightCap(t *testing.T) {
	// maxInFlight+10 operations due at once, none of which returns until
	// released: ten must be shed, and shed operations are failures.
	n := maxInFlight + 10
	s := &schedule{Phases: []phase{{phaseSpec: phaseSpec{Name: "steady", Rate: 1, Dur: time.Millisecond}, End: n}}}
	s.Arrivals = make([]arrival, n)
	for i := range s.Arrivals {
		s.Arrivals[i].Kind = opWrite
	}
	release := make(chan struct{})
	g := newGenerator(s, func(ctx context.Context, i int, a arrival) (bool, error) {
		<-release
		return false, nil
	})
	g.runPhase(0, nil)
	close(release)
	g.wait()
	sm := g.samples(0)
	if sm.Attempted != n || sm.Failed != 10 || sm.Completed != maxInFlight {
		t.Errorf("attempted %d, failed %d, completed %d", sm.Attempted, sm.Failed, sm.Completed)
	}
	if got := g.inFlightMax.Load(); got != maxInFlight {
		t.Errorf("in-flight maximum %d", got)
	}
}

func TestValuesNameThemselves(t *testing.T) {
	w, _ := findWorkload("write-heavy")
	s := buildSchedule(w, 5, testSpecs(), 2)
	var wi int
	for i, a := range s.Arrivals {
		if a.Kind == opWrite {
			wi = i
			break
		}
	}
	a := s.Arrivals[wi]
	v := makeValue(w.ValueBytes, a.Reg, uint32(a.Client), uint64(wi))
	if len(v) != w.ValueBytes {
		t.Fatalf("value is %d bytes", len(v))
	}
	if err := s.checkRead(v, a.Reg, w.ValueBytes); err != nil {
		t.Errorf("a scheduled write's value was refused: %v", err)
	}
	if err := s.checkRead(nil, a.Reg, w.ValueBytes); err != nil {
		t.Errorf("nil was refused: %v", err)
	}
	if err := s.checkRead(makeValue(w.ValueBytes, a.Reg, 0, preloadSeq+uint64(a.Reg)), a.Reg, w.ValueBytes); err != nil {
		t.Errorf("the preload was refused: %v", err)
	}
	if err := s.checkRead(v, a.Reg+1, w.ValueBytes); err == nil {
		t.Error("a value written to another register was accepted")
	}
	flipped := append([]byte(nil), v...)
	flipped[len(flipped)/2] ^= 1
	if err := s.checkRead(flipped, a.Reg, w.ValueBytes); err == nil {
		t.Error("a corrupted value was accepted")
	}
	never := makeValue(w.ValueBytes, a.Reg, 0, uint64(len(s.Arrivals))+5)
	if err := s.checkRead(never, a.Reg, w.ValueBytes); err == nil {
		t.Error("a value no write carries was accepted")
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the program in step: the
// same workloads, the same metric names and units, the same run length.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program defaults to %v", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in the manifest, %d in the program", len(m.EndToEnd), len(endToEndUnits))
	}
	for _, e := range m.EndToEnd {
		if endToEndUnits[e.Name] != e.Unit {
			t.Errorf("end-to-end %s: manifest unit %q, program %q", e.Name, e.Unit, endToEndUnits[e.Name])
		}
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", e.Name, e.Bound, e.Better)
		}
	}
	if len(m.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per-layer metrics in the manifest, %d in the program", len(m.PerLayer), len(perLayerUnits))
	}
	for _, e := range m.PerLayer {
		if perLayerUnits[e.Name] != e.Unit {
			t.Errorf("per-layer %s: manifest unit %q, program %q", e.Name, e.Unit, perLayerUnits[e.Name])
		}
	}
}

// TestZoneCheckAgreesWithLincheck compares the zone test's verdict with
// lincheck's exhaustive search on random small histories: linearizable ones
// built from random linearization points, the same with some reads' values
// swapped for others, and both with operations left pending.
func TestZoneCheckAgreesWithLincheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lin, nonlin int
	for trial := 0; trial < 4000; trial++ {
		n := 3 + rng.Intn(7)
		// Intervals of one to four slots starting in any of 2n slots, so that
		// some operations overlap and some are ordered; all times distinct.
		ops := make([]history.Op, n)
		points := make([]float64, n)
		for i := range ops {
			start, length := rng.Intn(2*n), 1+rng.Intn(4)
			a, b := int64((start*64+i)*2+2), int64(((start+length)*64+i)*2+3)
			ops[i] = history.Op{Kind: history.Read, Inv: a, Ret: b}
			if rng.Intn(2) == 0 {
				ops[i].Kind = history.Write
				ops[i].Value = []byte{byte(i + 1)}
			}
			points[i] = float64(a) + rng.Float64()*float64(b-a)
		}
		// Each read returns the write linearized last before its own point.
		var writes [][]byte
		for i := range ops {
			if ops[i].Kind == history.Write {
				writes = append(writes, ops[i].Value)
				continue
			}
			best := -1.0
			for j := range ops {
				if ops[j].Kind == history.Write && points[j] < points[i] && points[j] > best {
					best, ops[i].Value = points[j], ops[j].Value
				}
			}
		}
		if trial%2 == 1 && len(writes) > 0 { // swap some reads' values
			for i := range ops {
				if ops[i].Kind == history.Read && rng.Intn(3) == 0 {
					ops[i].Value = writes[rng.Intn(len(writes))]
					if rng.Intn(4) == 0 {
						ops[i].Value = nil
					}
				}
			}
		}
		if trial%3 == 0 { // leave one operation pending
			ops[rng.Intn(n)].Ret = 0
		}
		want := lincheck.CheckRegister(ops, lincheck.Config{}).Outcome
		err := zoneCheck(ops)
		switch {
		case want == lincheck.Linearizable && err != nil:
			t.Fatalf("trial %d: lincheck says linearizable, the zone test says %v\n%+v", trial, err, ops)
		case want == lincheck.NotLinearizable && err == nil:
			t.Fatalf("trial %d: lincheck says NOT linearizable, the zone test passed it\n%+v", trial, ops)
		case want == lincheck.Linearizable:
			lin++
		case want == lincheck.NotLinearizable:
			nonlin++
		}
	}
	if lin < 500 || nonlin < 500 {
		t.Errorf("the trials were one-sided: %d linearizable, %d not", lin, nonlin)
	}
}
