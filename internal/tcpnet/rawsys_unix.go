//go:build unix && !linux

package tcpnet

import "syscall"

// rawRead and rawWrite go through the syscall package here: raw syscall
// numbers are only used on Linux, whose system call ABI is stable. They
// return the bytes moved and the errno, 0 on success.

func rawRead(fd uintptr, b []byte) (int, syscall.Errno) {
	n, err := syscall.Read(int(fd), b)
	if err != nil {
		return 0, err.(syscall.Errno)
	}
	return n, 0
}

func rawWrite(fd uintptr, b []byte) (int, syscall.Errno) {
	n, err := syscall.Write(int(fd), b)
	if err != nil {
		return 0, err.(syscall.Errno)
	}
	return n, 0
}
