//go:build !unix

package tcpnet

import (
	"errors"
	"net"
	"os"
	"time"
)

// tryWrite writes as much of b as conn takes within a millisecond and
// returns how much that was. Missing the deadline is not an error: it reads
// as n < len(b).
func tryWrite(conn net.Conn, b []byte) (int, error) {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Millisecond))
	n, err := conn.Write(b)
	_ = conn.SetWriteDeadline(time.Time{})
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = nil
	}
	return n, err
}
