//go:build !linux

package core

import "os"

// datasync makes the data written to f durable. Off Linux there is no
// portable data-only sync — and on macOS only the full one reaches the
// platter — so this is the file's Sync.
func datasync(f *os.File) error { return f.Sync() }
