//go:build unix

package tcpnet

import (
	"io"
	"net"
	"os"
	"sync"
	"syscall"
)

// Socket I/O on Unix: read(2) and write(2) (rawRead, rawWrite) on the
// connection's non-blocking descriptor inside syscall.RawConn callbacks,
// which park the goroutine on the poller only when the socket would block.
// The package comment says why.

// sockReader is the io.Reader a connection's bufio.Reader fills from: each
// Read is one RawConn.Read whose callback makes the read(2)s. Only the
// bytes cross the callback; frames are parsed, and handlers run, after it
// has returned (see readLoop).
type sockReader struct {
	raw syscall.RawConn
	b   []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

func newSockReader(conn net.Conn) io.Reader {
	r := &sockReader{raw: conn.(*rawConn).raw}
	r.fn = r.read
	return r
}

func (r *sockReader) Read(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	r.b = b
	err := r.raw.Read(r.fn)
	n, rerr := r.n, r.err
	r.b, r.n, r.err = nil, 0, nil
	if err != nil {
		return 0, err
	}
	return n, rerr
}

// read runs with the descriptor. RawConn.Read clears the poller's
// readiness flag before the first call, so that call must really read:
// returning false without having seen EAGAIN could wait for an edge that
// already came.
func (r *sockReader) read(fd uintptr) bool {
	for {
		n, errno := rawRead(fd, r.b)
		switch errno {
		case 0:
			r.n = n
			if n == 0 {
				r.err = io.EOF
			}
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false // park on the poller until readable
		default:
			r.err = os.NewSyscallError("read", errno)
			return true
		}
	}
}

// writeSock writes b to conn's non-blocking descriptor and returns how much
// the socket took. With wait it writes all of b, parking on the poller
// whenever the socket buffer is full, under whatever write deadline is set
// on conn. Without it, it makes one write(2) and never parks: a full socket
// buffer is not an error, it reads as n < len(b).
func writeSock(conn net.Conn, b []byte, wait bool) (int, error) {
	w := sockWriterPool.Get().(*sockWriter)
	w.b, w.wait = b, wait
	err := conn.(*rawConn).raw.Write(w.fn)
	n, werr := w.n, w.err
	w.b, w.n, w.err = nil, 0, nil
	sockWriterPool.Put(w)
	if err != nil && werr == nil {
		werr = err
	}
	return n, werr
}

// sockWriter is the callback RawConn.Write runs with the descriptor, with
// its arguments and results. It is pooled, and fn bound once, because the
// callback escapes through the RawConn interface: a closure over locals
// costs every send two or three allocations.
type sockWriter struct {
	b    []byte
	n    int
	wait bool
	err  error
	fn   func(fd uintptr) bool
}

var sockWriterPool = sync.Pool{New: func() any {
	w := new(sockWriter)
	w.fn = w.write
	return w
}}

// write runs with the descriptor, again after every wait for writability;
// n carries the progress across those calls.
func (w *sockWriter) write(fd uintptr) bool {
	for w.n < len(w.b) {
		n, errno := rawWrite(fd, w.b[w.n:])
		switch errno {
		case 0:
			w.n += n
			if !w.wait {
				return true
			}
		case syscall.EINTR:
		case syscall.EAGAIN:
			return !w.wait // park on the poller only if allowed to wait
		default:
			w.err = os.NewSyscallError("write", errno)
			return true
		}
	}
	return true
}
