//go:build linux && (amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x)

package core

import (
	"io"
	"os"
	"syscall"
	"unsafe"
)

// On 64-bit Linux a commit neither enters the scheduler's syscall state,
// which wakes sysmon (DESIGN.md §6 item 1), nor holds its P while the disk
// works. The write is a raw pwrite64 into the page cache. The sync is an
// fdatasync submitted through Linux AIO (io_submit of IOCB_CMD_FDSYNC, run
// by a kernel worker): the commit then parks on an eventfd in the runtime's
// poller, as a tcpnet reader parks on its socket, and reaps the completion
// with io_getevents. So a GC stop-the-world, or a query on a GOMAXPROCS 1
// node, never waits for a sync, however long the disk takes (DESIGN.md §6
// "Flush policy"). Where the kernel refuses the AIO context or the request,
// the sync is an ordinary fdatasync. 64-bit only: pwrite64's offset is one
// register here, two on 32-bit Linux.

// pwrite writes all of b to f at offset off: pwrite(2), repeated over short
// writes and EINTR.
func pwrite(f *os.File, b []byte, off int64) error {
	fd := f.Fd()
	for len(b) > 0 {
		n, _, errno := syscall.RawSyscall6(syscall.SYS_PWRITE64, fd,
			uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(off), 0, 0)
		switch {
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			return os.NewSyscallError("pwrite64", errno)
		case n == 0:
			return io.ErrShortWrite
		}
		b, off = b[n:], off+int64(n)
	}
	return nil
}

// The kernel's AIO interface (linux/aio_abi.h).
const (
	iocbCmdFdsync = 3
	iocbCmdPoll   = 5 // completes when its descriptor is ready (tests)
	iocbFlagResfd = 1 // bump the eventfd in aio_resfd on completion
)

// iocb is struct iocb. aio_key and aio_rw_flags swap places on big-endian
// machines; both stay zero here.
type iocb struct {
	data     uint64
	key      uint32
	rwFlags  uint32
	opcode   uint16
	reqprio  int16
	fildes   uint32
	buf      uint64
	nbytes   uint64
	offset   int64
	reserved uint64
	flags    uint32
	resfd    uint32
}

// ioEvent is struct io_event.
type ioEvent struct {
	data, obj uint64
	res, res2 int64
}

// dataSyncer makes the data written to a log durable. One sync runs at a
// time (under persister.mu), and the syncer holds everything a sync
// touches, so a sync allocates nothing.
type dataSyncer struct {
	ctx  uintptr               // aio_context_t; 0: ordinary fdatasync
	efd  uint32                // the eventfd each completion bumps
	ev   *os.File              // efd, on the runtime's poller
	raw  syscall.RawConn       // ev's
	wait func(fd uintptr) bool // readCount, bound once

	// request builds the request that syncs f. A test swaps in a poll on a
	// pipe, which holds a commit in the same wait for as long as it likes.
	request func(f *os.File) iocb

	cb    iocb
	cbp   *iocb // io_submit's array of one
	event ioEvent
	zero  syscall.Timespec // io_getevents' timeout once the eventfd fired
	count [8]byte          // the eventfd's counter, read to reset it
}

func fdsyncRequest(f *os.File) iocb {
	return iocb{opcode: iocbCmdFdsync, fildes: uint32(f.Fd())}
}

func newDataSyncer() *dataSyncer {
	s := &dataSyncer{request: fdsyncRequest}
	s.cbp, s.wait = &s.cb, s.readCount
	var ctx uintptr
	if _, _, e := syscall.RawSyscall(syscall.SYS_IO_SETUP, 1, uintptr(unsafe.Pointer(&ctx)), 0); e != 0 {
		return s
	}
	efd, _, e := syscall.RawSyscall(syscall.SYS_EVENTFD2, 0, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		syscall.RawSyscall(syscall.SYS_IO_DESTROY, ctx, 0, 0)
		return s
	}
	ev := os.NewFile(efd, "wal-sync-eventfd")
	raw, err := ev.SyscallConn()
	if err != nil {
		ev.Close()
		syscall.RawSyscall(syscall.SYS_IO_DESTROY, ctx, 0, 0)
		return s
	}
	s.ctx, s.efd, s.ev, s.raw = ctx, uint32(efd), ev, raw
	return s
}

// sync makes the data written to f durable: fdatasync(2), which flushes the
// file's data and only the metadata needed to read it back. For an
// overwrite of blocks the file already has — every WAL commit but the one
// in hundreds that extends the zero tail — that is no metadata at all, so
// the filesystem journal is not committed.
func (s *dataSyncer) sync(f *os.File) error {
	if s.ctx == 0 {
		return fdatasync(f)
	}
	s.cb = s.request(f)
	s.cb.flags, s.cb.resfd = iocbFlagResfd, s.efd
	if _, _, e := syscall.RawSyscall(syscall.SYS_IO_SUBMIT, s.ctx, 1, uintptr(unsafe.Pointer(&s.cbp))); e != 0 {
		return fdatasync(f)
	}
	for {
		if err := s.raw.Read(s.wait); err != nil {
			// The poller failed the wait: wait in the kernel instead.
			if _, err := s.reap(true); err != nil {
				return err
			}
			break
		}
		done, err := s.reap(false)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	if s.event.res < 0 {
		return os.NewSyscallError("fdatasync", syscall.Errno(-s.event.res))
	}
	return nil
}

// readCount reads, and so resets, the eventfd's counter: false, to park on
// the poller, until a completion has bumped it.
func (s *dataSyncer) readCount(fd uintptr) bool {
	_, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&s.count[0])), 8)
	return e != syscall.EAGAIN
}

// reap collects the completion of the request in flight into s.event and
// reports whether there was one. With block it waits for it, in an ordinary
// system call; without, it returns at once.
func (s *dataSyncer) reap(block bool) (bool, error) {
	for {
		var n uintptr
		var e syscall.Errno
		if block {
			n, _, e = syscall.Syscall6(syscall.SYS_IO_GETEVENTS, s.ctx, 1, 1,
				uintptr(unsafe.Pointer(&s.event)), 0, 0)
		} else {
			n, _, e = syscall.RawSyscall6(syscall.SYS_IO_GETEVENTS, s.ctx, 1, 1,
				uintptr(unsafe.Pointer(&s.event)), uintptr(unsafe.Pointer(&s.zero)), 0)
		}
		switch {
		case e == syscall.EINTR:
			continue
		case e != 0:
			return false, os.NewSyscallError("io_getevents", e)
		}
		return n == 1, nil
	}
}

// close releases the AIO context and the eventfd; no sync is in flight.
func (s *dataSyncer) close() error {
	if s.ctx == 0 {
		return nil
	}
	syscall.Syscall(syscall.SYS_IO_DESTROY, s.ctx, 0, 0)
	s.ctx = 0
	return s.ev.Close()
}
