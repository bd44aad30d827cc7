package tcpnet

import (
	"syscall"
	"unsafe"
)

// rawRead and rawWrite are read(2) and write(2) issued with
// syscall.RawSyscall: the runtime is not told, which is right for a
// non-blocking descriptor, since the call never blocks and there is no P to
// hand off. b must not be empty.

func rawRead(fd uintptr, b []byte) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)))
	return int(n), errno
}

func rawWrite(fd uintptr, b []byte) (int, syscall.Errno) {
	n, _, errno := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)))
	return int(n), errno
}
