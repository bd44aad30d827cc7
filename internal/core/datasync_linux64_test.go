//go:build linux && (amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x)

package core

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestStalledSyncHoldsNoP: a commit whose sync does not complete holds no
// P. Its request is swapped for a poll on a pipe that nobody writes, which
// parks the commit in the wait a sync parks in. With GOMAXPROCS 1, a GC and
// a read on another connection both finish while the commit waits, and the
// write is acknowledged only once the pipe is written. A commit that held
// its P through the wait would hold up the GC's stop-the-world for good.
func TestStalledSyncHoldsNoP(t *testing.T) {
	r, ep := tcpReplica(t, filepath.Join(t.TempDir(), "stall.wal"))
	if r.persist.ds.ctx == 0 {
		t.Skip("no AIO context: syncs are ordinary fdatasync calls")
	}
	reader := tcpClient(t, 100, ep.Addr())
	writer := tcpClient(t, 101, ep.Addr())
	ctx := shortCtx(t)
	mustWrite(t, ctx, reader, "x", "v")

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	unstall := sync.OnceFunc(func() { _, _ = pw.Write([]byte{1}) })
	defer unstall()
	submitted := make(chan struct{})
	stalled := iocb{opcode: iocbCmdPoll, fildes: uint32(pr.Fd()), buf: 1 /* POLLIN */}
	r.persist.mu.Lock()
	r.persist.ds.request = func(*os.File) iocb {
		r.persist.ds.request = fdsyncRequest // the next commits sync
		close(submitted)
		return stalled
	}
	r.persist.mu.Unlock()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wrote := make(chan error, 1)
	go func() { wrote <- writer.Write(ctx, "y", []byte("w")) }()
	select {
	case <-submitted:
	case <-ctx.Done():
		t.Fatal("the write never reached the log")
	}

	runtime.GC()
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if v, err := reader.Read(rctx, "x"); err != nil || string(v) != "v" {
		t.Errorf("read on another connection while a sync is stalled: %q, %v", v, err)
	}
	select {
	case err := <-wrote:
		t.Fatalf("the write finished before its sync did: %v", err)
	default:
	}

	unstall()
	if err := <-wrote; err != nil {
		t.Fatalf("write after the sync completed: %v", err)
	}
	if v := mustRead(t, ctx, reader, "y"); v != "w" {
		t.Fatalf("read y = %q after its write, want %q", v, "w")
	}
}

// TestDataSyncerErrors: a sync reports the kernel's refusal, whether the
// AIO request is refused (a pipe has no fsync) and the ordinary call after
// it fails too, or there is no AIO context at all.
func TestDataSyncerErrors(t *testing.T) {
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	defer pw.Close()
	f, err := os.Create(filepath.Join(t.TempDir(), "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, s := range []*dataSyncer{newDataSyncer(), {}} {
		aio := s.ctx != 0
		if err := s.sync(f); err != nil {
			t.Errorf("sync of a file (AIO %v): %v", aio, err)
		}
		if err := s.sync(pw); err == nil {
			t.Errorf("sync of a pipe (AIO %v) reported no error", aio)
		}
		if err := s.close(); err != nil {
			t.Errorf("close (AIO %v): %v", aio, err)
		}
	}
}
