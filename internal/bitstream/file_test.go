package bitstream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestReadImageFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	img := bytes.Repeat([]byte{0xAA, 0x99, 0x55, 0x66}, 8)

	got, err := ReadImageFile(write("ok.bit", img))
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("ReadImageFile = %d bytes, %v; want the %d written", len(got), err, len(img))
	}
	if _, err := ReadImageFile(write("empty.bit", nil)); err == nil {
		t.Fatal("empty file accepted")
	}
	if _, err := ReadImageFile(filepath.Join(dir, "missing.bit")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}

	// A sparse file one byte over the cap is refused from its size,
	// without reading (or allocating) its 64 MiB.
	big := filepath.Join(dir, "big.bit")
	if err := os.WriteFile(big, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(big, MaxImageBytes+1); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadImageFile(big); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("oversized file: %v, want ErrImageTooLarge", err)
	}

	// The limit is inclusive: exactly limit bytes read, limit+1 refused.
	n := int64(len(img))
	if got, err := readImageFile(write("at.bit", img), n); err != nil || int64(len(got)) != n {
		t.Fatalf("file at the limit: %d bytes, %v", len(got), err)
	}
	if _, err := readImageFile(write("over.bit", append(img, 0)), n); !errors.Is(err, ErrImageTooLarge) {
		t.Fatalf("file one byte over the limit: %v, want ErrImageTooLarge", err)
	}
}
