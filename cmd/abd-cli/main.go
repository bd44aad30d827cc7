// Command abd-cli is the TCP client for a replica group started with
// abd-node.
//
// Usage:
//
//	abd-cli -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" write greeting hello
//	abd-cli -peers "..." read greeting
//
// Flag -single-writer selects the SWMR protocol variant.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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

	peers, order, err := tcpnet.ParsePeers(*peersFlag)
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

	default:
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  abd-cli -peers "0=addr,1=addr,2=addr" read <register>
  abd-cli -peers "..." write <register> <value>`)
}
