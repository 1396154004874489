//go:build linux

package oplog

import (
	"os"
	"syscall"
)

// datasync flushes f's written data without forcing a metadata-only
// journal commit — fdatasync(2). The log calls it only for a commit
// whose flush stayed inside the segment's grown region: the full fsync
// that ended the growth step already made the file's size and block
// mapping durable, so the overwritten data blocks are all an acked
// record still needs to survive.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			return err
		}
	}
}
