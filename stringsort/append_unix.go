//go:build unix

package stringsort

import (
	"os"
	"syscall"
)

// appendOnly reports whether f was opened for appending, where Linux's
// positioned writes ignore their offset and append.
func appendOnly(f *os.File) bool {
	rc, err := f.SyscallConn()
	if err != nil {
		return true
	}
	var flags uintptr
	var errno syscall.Errno
	rc.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	})
	return errno != 0 || flags&syscall.O_APPEND != 0
}
