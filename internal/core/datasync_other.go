//go:build !linux

package core

import "os"

// pwrite writes all of b to f at offset off.
func pwrite(f *os.File, b []byte, off int64) error {
	_, err := f.WriteAt(b, off)
	return err
}

// dataSyncer makes the data written to a log durable. Off Linux there is
// no portable data-only sync — and on macOS only the full one reaches the
// platter — so this is the file's Sync.
type dataSyncer struct{}

func newDataSyncer() *dataSyncer { return &dataSyncer{} }

func (*dataSyncer) sync(f *os.File) error { return f.Sync() }

func (*dataSyncer) close() error { return nil }
