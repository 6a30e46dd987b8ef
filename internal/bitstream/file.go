package bitstream

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// MaxImageBytes caps a bitstream read from a file: 64 MiB, above the
// full configuration image of the largest 7-series part, so no genuine
// bitstream is refused while a hostile or mistaken path (a disk image,
// /dev/zero) cannot exhaust memory.
const MaxImageBytes = 64 << 20

// ErrImageTooLarge is returned (wrapped) by ReadImageFile for a file
// larger than MaxImageBytes.
var ErrImageTooLarge = errors.New("bitstream: image file too large")

// ReadImageFile reads a bitstream file whole. It refuses a file over
// MaxImageBytes from its size before reading, and reads through a
// MaxImageBytes+1 limit so a file that grows after that check is still
// refused rather than read unbounded. An empty file is an error too: a
// zero-byte "bitstream" scanning to zero matches would read as a clean
// negative result.
func ReadImageFile(path string) ([]byte, error) {
	return readImageFile(path, MaxImageBytes)
}

func readImageFile(path string, limit int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > limit {
		return nil, fmt.Errorf("%w: %s is %d bytes, limit %d", ErrImageTooLarge, path, fi.Size(), limit)
	}
	b, err := io.ReadAll(io.LimitReader(f, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("%w: %s grew past %d bytes while being read", ErrImageTooLarge, path, limit)
	}
	if len(b) == 0 {
		return nil, fmt.Errorf("bitstream: %s is empty (0 bytes) — not a bitstream", path)
	}
	return b, nil
}
