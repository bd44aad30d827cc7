//go:build linux && !(amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x)

package core

import "os"

// On 32-bit Linux a commit keeps the ordinary calls: a raw pwrite64 would
// have to split its offset across two registers (aligned on arm), and the
// asynchronous sync of datasync_linux64.go is not worth its own twin.

// pwrite writes all of b to f at offset off.
func pwrite(f *os.File, b []byte, off int64) error {
	_, err := f.WriteAt(b, off)
	return err
}

// dataSyncer makes the data written to a log durable: fdatasync(2).
type dataSyncer struct{}

func newDataSyncer() *dataSyncer { return &dataSyncer{} }

func (*dataSyncer) sync(f *os.File) error { return fdatasync(f) }

func (*dataSyncer) close() error { return nil }
