package store

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzWALDecode attacks the log decoder with arbitrary bytes. The
// contract under fuzz: DecodeLog never panics, never allocates on the
// say-so of a corrupt length field, always returns one of the typed
// errors when it fails, and the valid prefix it does return re-encodes
// to bytes that decode to the same records (decode∘encode fixpoint).
// This is the recovery-path guarantee: whatever a crash (or bit rot)
// leaves on disk, a restarting engine gets typed errors and a usable
// prefix, not a panic.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SNOWWAL1"))
	f.Add([]byte("not a wal file"))
	if seed, err := EncodeLog([]Record{
		{Seq: 1, Job: "job-0001", State: "queued", Kind: "attack", Tenant: "acme",
			Spec: json.RawMessage(`{"kind":"attack","iv":[1,2,3,4]}`)},
		{Seq: 2, Job: "job-0001", State: "running"},
		{Seq: 3, Job: "job-0001", State: "done", Result: json.RawMessage(`{"verified":true}`)},
	}); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)-3]) // torn tail
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/2] ^= 0x10 // mid-log bit flip
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, n, err := DecodeLog(data)
		if n < 0 || n > len(data) {
			t.Fatalf("valid prefix %d outside input of %d bytes", n, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrRecordDecode) &&
				!errors.Is(err, ErrSeqOrder) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("untyped decode error: %v", err)
			}
		} else if len(data) > 0 && n != len(data) {
			t.Fatalf("nil error but only %d of %d bytes consumed", n, len(data))
		}
		// The surviving prefix must survive a round trip unchanged.
		re, err2 := EncodeLog(recs)
		if err2 != nil {
			t.Fatalf("re-encode of decoded prefix failed: %v", err2)
		}
		recs2, _, err3 := DecodeLog(re)
		if err3 != nil {
			t.Fatalf("decode of re-encoded prefix failed: %v", err3)
		}
		if !reflect.DeepEqual(recs, recs2) {
			t.Fatalf("decode∘encode not a fixpoint:\n got %+v\nwant %+v", recs2, recs)
		}
		// Folding never panics either, whatever the prefix holds.
		_ = FoldLatest(recs)
	})
}
