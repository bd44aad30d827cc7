//go:build unix

package tcpnet

import (
	"net"
	"sync"
	"syscall"
)

// tryWrite makes one write(2) on conn's non-blocking descriptor and returns
// how much of b the socket took; it never waits for the socket to drain. A
// full socket buffer is not an error: it reads as n < len(b).
func tryWrite(conn net.Conn, b []byte) (int, error) {
	w := writeOncePool.Get().(*writeOnce)
	w.b = b
	err := conn.(*rawConn).raw.Write(w.fn)
	n, werr := w.n, w.err
	w.b, w.err = nil, nil
	writeOncePool.Put(w)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		n = 0
	}
	if werr == syscall.EAGAIN {
		werr = nil
	}
	return n, werr
}

// writeOnce is the callback RawConn.Write runs with the descriptor, with
// its argument and results. It is pooled, and fn bound once, because the
// callback escapes through the RawConn interface: a closure over locals
// costs every send two or three allocations.
type writeOnce struct {
	b   []byte
	n   int
	err error
	fn  func(fd uintptr) bool
}

var writeOncePool = sync.Pool{New: func() any {
	w := new(writeOnce)
	w.fn = w.write
	return w
}}

func (w *writeOnce) write(fd uintptr) bool {
	for {
		w.n, w.err = syscall.Write(int(fd), w.b)
		if w.err != syscall.EINTR {
			return true // done either way: never ask the poller to wait
		}
	}
}
