//go:build unix

package fleet

import (
	"errors"
	"os"
	"syscall"
)

// flock takes an advisory lock on the whole of f: shared for readers,
// exclusive for writers. The lock belongs to the open file description, so
// two opens of one file exclude each other even within a process; closing
// f releases it.
func flock(f *os.File, exclusive bool) error {
	how := syscall.LOCK_SH
	if exclusive {
		how = syscall.LOCK_EX
	}
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if !errors.Is(err, syscall.EINTR) {
			return err
		}
	}
}
