//go:build !unix

package tcpnet

import (
	"errors"
	"io"
	"net"
	"os"
	"time"
)

// newSockReader is the connection itself: off Unix, reads go through
// net.Conn.
func newSockReader(conn net.Conn) io.Reader { return conn }

// writeSock writes b to conn and returns how much of it conn took. With wait
// it is conn.Write, under whatever write deadline is set on conn. Without
// it, it writes as much as conn takes within a millisecond; missing that
// deadline is not an error, it reads as n < len(b).
func writeSock(conn net.Conn, b []byte, wait bool) (int, error) {
	if wait {
		return conn.Write(b)
	}
	_ = conn.SetWriteDeadline(time.Now().Add(time.Millisecond))
	n, err := conn.Write(b)
	_ = conn.SetWriteDeadline(time.Time{})
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = nil
	}
	return n, err
}
