package core

import (
	"context"
	rtrace "runtime/trace"
	"strconv"
)

// Runtime execution-trace integration: while a runtime/trace session is
// active (runtime/trace.Start, or a /debug/pprof/trace scrape), every
// Read/Write opens a trace task ("abd.read"/"abd.write") and every quorum
// phase a region ("abd.phase.query", "abd.phase.write-back", ...) inside it,
// with the operation's causal trace id logged under the "abd.trace"
// category — so a `go tool trace` flamegraph lines up with the obs span tree
// for the same operation. Everything here is gated on rtrace.IsEnabled(), so
// a client costs one branch per call while no trace session runs.

func noopEnd() {}

// beginRuntimeTask opens a trace task for one client operation and returns
// the task-bearing context (phases started under it become its regions)
// plus the end function.
func beginRuntimeTask(ctx context.Context, name string, ot opTrace) (context.Context, func()) {
	if !rtrace.IsEnabled() {
		return ctx, noopEnd
	}
	ctx, task := rtrace.NewTask(ctx, name)
	if ot.trace != 0 {
		// The causal trace id, hex like abd-cli trace renders it, so a task in
		// the execution trace can be matched to its span tree.
		rtrace.Log(ctx, "abd.trace", strconv.FormatUint(ot.trace, 16))
	}
	return ctx, task.End
}

// phaseRegion brackets one broadcast-and-collect phase as a region of the
// operation's task; the returned func ends it.
func phaseRegion(ctx context.Context, label string) func() {
	if !rtrace.IsEnabled() {
		return noopEnd
	}
	return rtrace.StartRegion(ctx, regionName(label)).End
}

// regionName maps the phase labels used by the obs spans to stable region
// names without allocating on the hot path.
func regionName(label string) string {
	switch label {
	case "query":
		return "abd.phase.query"
	case "update":
		return "abd.phase.update"
	case "write-back":
		return "abd.phase.write-back"
	default:
		return "abd.phase." + label
	}
}
