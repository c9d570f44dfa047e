package sweep

import (
	"bytes"
	"syscall"
	"unsafe"
)

// atFDCWD is AT_FDCWD: openat resolves a relative path from the working
// directory, as open does.
const atFDCWD = -100

// readEntry reads the file at path into buf with one openat, one read and
// one close, and returns the number of bytes read. The path is passed to
// the kernel from path's own storage, NUL-terminated in its spare
// capacity, so neither the path nor the file costs an allocation.
//
// One read takes a regular file up to buf's length or to its end. The
// caller reads a file that fills buf again whole; a read that stopped
// short of both would hand it a prefix of an entry, which no decoder
// accepts, so the cost is a miss, never a wrong hit.
func readEntry(path, buf []byte) (int, error) {
	if bytes.IndexByte(path, 0) >= 0 {
		return 0, syscall.EINVAL // os.Open refuses such a name too
	}
	p := append(path, 0)
	dir := atFDCWD
	var fd uintptr
	for {
		var errno syscall.Errno
		fd, _, errno = syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dir), uintptr(unsafe.Pointer(&p[0])),
			syscall.O_RDONLY|syscall.O_CLOEXEC, 0, 0, 0)
		if errno == 0 {
			break
		}
		if errno != syscall.EINTR {
			return 0, errno
		}
	}
	defer syscall.Close(int(fd))
	for {
		n, err := syscall.Read(int(fd), buf)
		if err != syscall.EINTR {
			return n, err
		}
	}
}
