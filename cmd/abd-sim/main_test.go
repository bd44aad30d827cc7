package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/history"
)

// TestCheckExitContract pins -in's exit status: 0 linearizable, 1 not
// linearizable, 2 usage error or unreadable input, 3 undecided. The
// undecided history has 13 pending writes on one register, one past the
// checker's 12-write cutoff.
func TestCheckExitContract(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, ops ...history.Op) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := history.WriteJSON(f, ops); err != nil {
			t.Fatal(err)
		}
		return path
	}
	op := func(client int, kind history.Kind, value string, inv, ret int64) history.Op {
		return history.Op{Client: client, Kind: kind, Reg: "x", Value: []byte(value), Inv: inv, Ret: ret}
	}
	var pending []history.Op
	for i := 0; i < 13; i++ {
		pending = append(pending, op(i, history.Write, "v", int64(i+1), 0))
	}
	good := file("good.json", op(1, history.Write, "a", 1, 2), op(2, history.Read, "a", 3, 4))
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"linearizable", []string{"-in", good, "-witness"}, 0},
		{"stale read", []string{"-in", file("stale.json",
			op(1, history.Write, "a", 1, 2), op(1, history.Write, "b", 3, 4), op(2, history.Read, "a", 5, 6))}, 1},
		{"undecided", []string{"-in", file("pending.json", pending...)}, 3},
		{"missing file", []string{"-in", filepath.Join(dir, "absent.json")}, 2},
		{"malformed file", []string{"-in", garbage}, 2},
		{"two modes", []string{"-in", good, "-nemesis"}, 2},
		{"unknown flag", []string{"-in", good, "-no-such-flag"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(tc.args); got != tc.want {
				t.Fatalf("abd-sim %v exited %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
