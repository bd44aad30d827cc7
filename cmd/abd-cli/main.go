// Command abd-cli operates a live replica group started with abd-node. Every
// verb takes its flags after the verb name, then its arguments:
//
//	abd-cli write -peers "0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002" greeting hello
//	abd-cli read -peers "..." greeting
//	abd-cli top -nodes 127.0.0.1:9100,127.0.0.1:9101,127.0.0.1:9102 [-once]
//	abd-cli trace [-top N] [-min-stitch F] spans.jsonl [more.jsonl ...]
//
// read and write run one operation as a TCP client of the group (flag
// -single-writer selects the SWMR protocol variant); top is a live view
// over the nodes' /status endpoints (top.go); trace analyzes span dumps
// (trace.go). Exit status 2 is a usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/tcpnet"
	"repro/internal/types"
)

const usage = `usage:
  abd-cli read -peers "0=addr,1=addr,2=addr" [-id N] [-timeout D] [-single-writer] <register>
  abd-cli write -peers "..." [-id N] [-timeout D] [-single-writer] <register> <value>
  abd-cli top -nodes host:port,... [-interval D] [-quorum N] [-regs N] [-once]
  abd-cli trace [-top N] [-min-stitch F] [spans.jsonl ...]`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "read", "write":
			return runOp(args[0], args[1:], w)
		case "top":
			return runTop(args[1:], w)
		case "trace":
			return runTrace(args[1:], w)
		}
	}
	fmt.Fprintln(os.Stderr, usage)
	return 2
}

// runOp runs one read or write against the group named by -peers.
func runOp(verb string, args []string, w io.Writer) int {
	fs := flag.NewFlagSet("abd-cli "+verb, flag.ContinueOnError)
	var (
		peersFlag    = fs.String("peers", "", "replica addresses: id=host:port,...")
		id           = fs.Int("id", 100, "this client's node id (distinct from replicas)")
		timeout      = fs.Duration("timeout", 5*time.Second, "per-operation deadline")
		singleWriter = fs.Bool("single-writer", false, "use the SWMR fast path (you must be the only writer)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	want := 1 // read <register>
	if verb == "write" {
		want = 2 // write <register> <value>
	}
	if fs.NArg() != want {
		fmt.Fprintln(os.Stderr, usage)
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

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var out string
	if verb == "write" {
		err = cli.Write(ctx, fs.Arg(0), []byte(fs.Arg(1)))
		out = "ok"
	} else {
		var v types.Value
		v, err = cli.Read(ctx, fs.Arg(0))
		out = string(v)
		if v == nil {
			out = "(not written)"
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "abd-cli: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, out)
	return 0
}
