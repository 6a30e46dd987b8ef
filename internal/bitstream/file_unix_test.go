//go:build unix

package bitstream

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestReadImageFileGrowsAfterStat feeds ReadImageFile a FIFO: it stats
// as 0 bytes, then delivers more than the limit. The read limit, not
// the size check, must refuse it.
func TestReadImageFileGrowsAfterStat(t *testing.T) {
	fifo := filepath.Join(t.TempDir(), "pipe.bit")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	const limit = 64
	go func() {
		w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
		if err != nil {
			return
		}
		defer w.Close()
		w.Write(make([]byte, 4*limit)) // EPIPE once the reader stops is fine
	}()
	if _, err := readImageFile(fifo, limit); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("stream past the limit: %v, want ErrImageTooLarge", err)
	}
}
