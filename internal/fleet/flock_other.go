//go:build !unix

package fleet

import (
	"errors"
	"os"
)

// flock is unavailable off unix; the file state store refuses to run
// without the per-session lock its version check relies on.
func flock(*os.File, bool) error {
	return errors.New("fleet: the file state store needs flock, which this platform lacks")
}
