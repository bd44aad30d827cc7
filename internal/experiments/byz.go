package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/netsim"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
)

// BYByzantineCost measures what Byzantine tolerance costs. The same
// concurrent workload (1 writer + 2 readers, one shared register, a
// recorded history) runs three passes over n=5 replicas:
//
//   - f0-honest: plain crash-fault clients (WithByzantine(0) = majority
//     quorums, no validation) — the baseline.
//   - f1-honest: WithByzantine(1) clients, everyone honest — the pure
//     price of validation: masking quorums of 4/5 instead of 3/5 plus the
//     f+1-vouch bookkeeping, with zero rejections (the confirm round
//     absorbs honest races).
//   - f1-attack: WithByzantine(1) with replica 2 actively fabricating
//     max-tags — validated reads must stay linearizable and uncorrupted
//     while the suspected-liar counter goes nonzero, paying confirm
//     rounds for the lies.
//
// Each pass's history is checked for linearizability, so the table is a
// verdict as well as a cost sheet. With Options.JSONOut set the run also
// writes a machine-readable byzReport (BENCH_byz.json) for CI assertions.
func BYByzantineCost(o Options) (*Table, error) {
	tbl := &Table{
		ID:      "BY",
		Title:   "Byzantine validation cost: f=0 vs f=1, honest and under attack",
		Claim:   "validated reads (masking quorums + f+1 vouching + confirm round) keep histories linearizable under a lying replica, at a bounded latency cost and zero false suspicions when honest",
		Headers: []string{"pass", "quorum", "ops", "ops/sec", "read p50", "read p99", "write p50", "corrupted", "rejects", "confirms", "linearizable"},
	}
	ops := o.scale(240, 60)

	const n, f = 5, 1
	report := byzReport{
		N: n, F: f, Writers: 1, Readers: 2, OpsPerWorker: ops,
		MajorityQuorum: n/2 + 1, MaskingQuorum: quorum.NewMasking(n, f).QuorumSize(),
	}
	report.stamp(schemaByz, o)

	specs := []struct {
		name   string
		f      int
		attack bool
	}{
		{"f0-honest", 0, false},
		{"f1-honest", f, false},
		{"f1-attack", f, true},
	}
	for _, sp := range specs {
		pass, err := runByzPass(o, sp.name, sp.f, sp.attack, n, ops)
		if err != nil {
			return nil, fmt.Errorf("BY %s: %w", sp.name, err)
		}
		report.Passes = append(report.Passes, pass)
		lin := "YES"
		if !pass.Linearizable {
			lin = "NO"
		}
		tbl.AddRow(pass.Name,
			fmt.Sprintf("%d/%d", pass.QuorumSize, n),
			fmt.Sprint(pass.Ops),
			fmt.Sprintf("%.0f", pass.OpsPerSec),
			us(time.Duration(pass.ReadP50US*1e3)),
			us(time.Duration(pass.ReadP99US*1e3)),
			us(time.Duration(pass.WriteP50US*1e3)),
			fmt.Sprint(pass.Corrupted),
			fmt.Sprint(pass.ByzRejects),
			fmt.Sprint(pass.ByzConfirms),
			lin,
		)
	}

	f0, f1, atk := report.Passes[0], report.Passes[1], report.Passes[2]
	if f0.ReadP50US > 0 {
		report.ReadCostHonest = f1.ReadP50US / f0.ReadP50US
		report.ReadCostAttack = atk.ReadP50US / f0.ReadP50US
	}
	if f0.OpsPerSec > 0 {
		report.ThroughputCostHonest = f0.OpsPerSec / f1.OpsPerSec
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("read p50 cost: %.2fx at f=1 honest, %.2fx under attack (vs the f=0 baseline)",
			report.ReadCostHonest, report.ReadCostAttack),
		"honest passes must show 0 rejects (the confirm round absorbs in-flight writes); the attack pass must show rejects > 0 with 0 corrupted reads",
		"f=0 is a genuine baseline: WithByzantine(0) keeps majority quorums and skips validation entirely",
	)

	if err := writeBenchJSON(o, tbl, report); err != nil {
		return nil, err
	}
	return tbl, nil
}

// byzReport is the machine-readable output (BENCH_byz.json).
type byzReport struct {
	benchEnvelope
	N              int       `json:"n"`
	F              int       `json:"f"`
	Writers        int       `json:"writers"`
	Readers        int       `json:"readers"`
	OpsPerWorker   int       `json:"ops_per_worker"`
	MajorityQuorum int       `json:"majority_quorum"`
	MaskingQuorum  int       `json:"masking_quorum"`
	Passes         []byzPass `json:"passes"`
	// ReadCostHonest is the f1-honest read p50 over the f0 baseline;
	// ReadCostAttack the same for the attack pass; ThroughputCostHonest
	// the baseline ops/sec over f1-honest (all >= 1 in expectation).
	ReadCostHonest       float64 `json:"read_cost_honest"`
	ReadCostAttack       float64 `json:"read_cost_attack"`
	ThroughputCostHonest float64 `json:"throughput_cost_honest"`
}

type byzPass struct {
	Name       string  `json:"name"`
	F          int     `json:"f"`
	Attack     bool    `json:"attack"`
	QuorumSize int     `json:"quorum_size"`
	Ops        int64   `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	ReadP50US  float64 `json:"read_p50_us"`
	ReadP99US  float64 `json:"read_p99_us"`
	WriteP50US float64 `json:"write_p50_us"`
	WriteP99US float64 `json:"write_p99_us"`
	// Corrupted counts reads returning a value no writer ever wrote.
	Corrupted int64 `json:"corrupted"`
	// ByzRejects/ByzConfirms/MaskRetries are the clients' merged
	// validation counters (see core.MetricsSnapshot).
	ByzRejects   int64 `json:"byz_rejects"`
	ByzConfirms  int64 `json:"byz_confirms"`
	MaskRetries  int64 `json:"mask_retries"`
	MsgsSent     int64 `json:"msgs_sent"`
	Linearizable bool  `json:"linearizable"`
}

// byzLiar is the replica the Byzantine experiments turn into a liar.
const byzLiar types.NodeID = 2

// startByzReplicas starts n honest replicas on net. With mode != 0 replica
// byzLiar lies in that mode: its outbound replies pass through a core.Liar
// installed as a chaos interceptor, the adversary the nemesis harness runs
// over TCP. It returns the replica ids and a function stopping them.
func startByzReplicas(net *netsim.Net, n int, mode core.ByzMode, seed int64) ([]types.NodeID, func()) {
	cn := chaos.New(seed)
	if mode != 0 {
		liar := core.NewLiar(byzLiar, seed)
		liar.SetMode(mode)
		cn.SetInterceptor(byzLiar, liar.Intercept)
	}
	ids := make([]types.NodeID, n)
	reps := make([]*core.Replica, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
		var ep transport.Endpoint = net.Node(ids[i])
		if mode != 0 && ids[i] == byzLiar {
			ep = cn.Wrap(ep)
		}
		reps[i] = core.NewReplica(ids[i], ep)
		reps[i].Start()
	}
	return ids, func() {
		for _, r := range reps {
			r.Stop()
		}
	}
}

// runByzPass runs one BY pass: n replicas (replica 2 fabricating when
// attack), 1 writer + 2 readers hammering one register concurrently with a
// recorded history, then a linearizability check over what the clients
// observed.
func runByzPass(o Options, name string, f int, attack bool, n, ops int) (byzPass, error) {
	pass := byzPass{Name: name, F: f, Attack: attack, QuorumSize: n/2 + 1}
	if f > 0 {
		pass.QuorumSize = quorum.NewMasking(n, f).QuorumSize()
	}

	net := netsim.New(netsim.Config{Seed: o.seed()})
	defer net.Close()
	var mode core.ByzMode
	if attack {
		mode = core.ByzFabricate
	}
	ids, stop := startByzReplicas(net, n, mode, o.seed())
	defer stop()

	copts := []core.ClientOption{core.WithByzantine(f)}
	clients := make([]*core.Client, 3)
	for i := range clients {
		cli, err := core.NewClient(types.NodeID(1000+i), net.Node(types.NodeID(1000+i)), ids, copts...)
		if err != nil {
			return pass, err
		}
		defer cli.Close()
		clients[i] = cli
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	rec := history.NewRecorder()
	var wg sync.WaitGroup
	var wErr, r0Err, r1Err error
	readLat := make([][]time.Duration, 2)
	var writeLat []time.Duration
	var corrupted int64
	var corruptedMu sync.Mutex

	start := time.Now()
	wg.Add(1)
	go func() { // writer: values "v<i>", so anything else is fabricated
		defer wg.Done()
		for i := 0; i < ops; i++ {
			val := []byte(fmt.Sprintf("v%d", i))
			p := rec.BeginWriteReg(1000, "x", val)
			t0 := time.Now()
			if err := clients[0].Write(ctx, "x", val); err != nil {
				p.Crash()
				wErr = err
				return
			}
			writeLat = append(writeLat, time.Since(t0))
			p.EndWrite()
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				p := rec.BeginReadReg(1001+r, "x")
				t0 := time.Now()
				val, err := clients[1+r].Read(ctx, "x")
				if err != nil {
					p.Crash()
					if r == 0 {
						r0Err = err
					} else {
						r1Err = err
					}
					return
				}
				readLat[r] = append(readLat[r], time.Since(t0))
				p.EndRead(val)
				if len(val) > 0 && !strings.HasPrefix(string(val), "v") {
					corruptedMu.Lock()
					corrupted++
					corruptedMu.Unlock()
				}
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range []error{wErr, r0Err, r1Err} {
		if err != nil {
			return pass, err
		}
	}

	reads := append(append([]time.Duration(nil), readLat[0]...), readLat[1]...)
	pass.Ops = int64(len(reads) + len(writeLat))
	pass.OpsPerSec = float64(pass.Ops) / elapsed.Seconds()
	pass.ReadP50US = float64(percentile(reads, 0.50).Nanoseconds()) / 1e3
	pass.ReadP99US = float64(percentile(reads, 0.99).Nanoseconds()) / 1e3
	pass.WriteP50US = float64(percentile(writeLat, 0.50).Nanoseconds()) / 1e3
	pass.WriteP99US = float64(percentile(writeLat, 0.99).Nanoseconds()) / 1e3
	pass.Corrupted = corrupted

	var m core.MetricsSnapshot
	for _, cli := range clients {
		m = m.Merge(cli.Metrics())
	}
	pass.ByzRejects = m.ByzRejects
	pass.ByzConfirms = m.ByzConfirms
	pass.MaskRetries = m.MaskRetries
	pass.MsgsSent = m.MsgsSent

	results := lincheck.CheckRegisters(rec.Ops(), lincheck.Config{Timeout: 60 * time.Second})
	pass.Linearizable = lincheck.AllLinearizable(results) == lincheck.Linearizable
	return pass, nil
}
