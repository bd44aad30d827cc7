package core

import (
	"os"
	"syscall"
)

// datasync makes the data written to f durable: fdatasync(2), which flushes
// the file's data and only the metadata needed to read it back. For an
// overwrite of blocks the file already has — every WAL commit but the one
// in hundreds that extends the zero tail — that is no metadata at all, so
// the filesystem journal is not committed.
func datasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}
