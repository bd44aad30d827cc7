// Command abd-cli is the TCP client for a replica group started with
// abd-node.
//
// Usage:
//
//	abd-cli -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" write greeting hello
//	abd-cli -peers "..." read greeting
//	abd-cli -peers "..." bench -ops 1000 -readpct 50
//
// Flag -single-writer selects the SWMR protocol variant.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		peersFlag    = flag.String("peers", "", "replica addresses: id=host:port,...")
		id           = flag.Int("id", 100, "this client's node id (distinct from replicas)")
		timeout      = flag.Duration("timeout", 5*time.Second, "per-operation deadline")
		singleWriter = flag.Bool("single-writer", false, "use the SWMR fast path (you must be the only writer)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		return 2
	}

	peers, order, err := parsePeers(*peersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-cli: %v\n", err)
		return 2
	}

	ep, err := tcpnet.Listen(tcpnet.Config{ID: types.NodeID(*id), Peers: peers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-cli: %v\n", err)
		return 1
	}
	var copts []core.ClientOption
	if *singleWriter {
		copts = append(copts, core.WithSingleWriter())
	}
	cli, err := core.NewClient(types.NodeID(*id), ep, order, copts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-cli: %v\n", err)
		return 1
	}
	defer cli.Close()

	switch args[0] {
	case "read":
		if len(args) != 2 {
			usage()
			return 2
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		v, err := cli.Read(ctx, args[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-cli: %v\n", err)
			return 1
		}
		if v == nil {
			fmt.Println("(not written)")
		} else {
			fmt.Printf("%s\n", v)
		}
		return 0

	case "write":
		if len(args) != 3 {
			usage()
			return 2
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		if err := cli.Write(ctx, args[1], []byte(args[2])); err != nil {
			fmt.Fprintf(os.Stderr, "abd-cli: %v\n", err)
			return 1
		}
		fmt.Println("ok")
		return 0

	case "bench":
		fs := flag.NewFlagSet("bench", flag.ContinueOnError)
		ops := fs.Int("ops", 1000, "operations to run")
		readPct := fs.Int("readpct", 50, "percentage of reads")
		reg := fs.String("reg", "bench", "register name")
		if err := fs.Parse(args[1:]); err != nil {
			return 2
		}
		return benchCmd(cli, *timeout, *ops, *readPct, *reg)

	default:
		usage()
		return 2
	}
}

func benchCmd(cli *core.Client, timeout time.Duration, ops, readPct int, reg string) int {
	start := time.Now()
	var readLat, writeLat []time.Duration
	for i := 0; i < ops; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		opStart := time.Now()
		var err error
		if i%100 < readPct {
			_, err = cli.Read(ctx, reg)
			readLat = append(readLat, time.Since(opStart))
		} else {
			err = cli.Write(ctx, reg, []byte(strconv.Itoa(i)))
			writeLat = append(writeLat, time.Since(opStart))
		}
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "abd-cli: op %d: %v\n", i, err)
			return 1
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("%d ops in %v (%.0f ops/s)\n", ops, elapsed.Round(time.Millisecond),
		float64(ops)/elapsed.Seconds())
	report := func(name string, lat []time.Duration) {
		if len(lat) == 0 {
			return
		}
		var total time.Duration
		for _, l := range lat {
			total += l
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("%s: n=%d mean=%v p50=%v p99=%v\n", name, len(lat),
			(total / time.Duration(len(lat))).Round(time.Microsecond),
			lat[len(lat)/2].Round(time.Microsecond),
			lat[int(0.99*float64(len(lat)-1))].Round(time.Microsecond))
	}
	report("reads", readLat)
	report("writes", writeLat)
	m := cli.Metrics()
	fmt.Printf("phases=%d msgs=%d write-backs=%d skipped=%d\n",
		m.Phases, m.MsgsSent, m.WriteBacks, m.WriteBacksSkipped)
	return 0
}

// parsePeers parses "0=host:port,1=host:port". Replica order (and therefore
// quorum indexing) is by ascending id.
func parsePeers(s string) (map[types.NodeID]string, []types.NodeID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil, fmt.Errorf("missing -peers")
	}
	peers := make(map[types.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		idS, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, nil, fmt.Errorf("bad peer %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(idS)
		if err != nil {
			return nil, nil, fmt.Errorf("bad peer id %q: %w", idS, err)
		}
		if _, dup := peers[types.NodeID(id)]; dup {
			return nil, nil, fmt.Errorf("duplicate peer id %d", id)
		}
		peers[types.NodeID(id)] = addr
	}
	order := make([]types.NodeID, 0, len(peers))
	for id := range peers {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	return peers, order, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  abd-cli -peers "0=addr,1=addr,2=addr" read <register>
  abd-cli -peers "..." write <register> <value>
  abd-cli -peers "..." bench [-ops N] [-readpct P] [-reg NAME]`)
}
