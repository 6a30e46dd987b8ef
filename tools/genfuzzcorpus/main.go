// Command genfuzzcorpus regenerates the committed seed corpora under
// testdata/fuzz/ for the repo's fuzz targets. Committed seeds run on
// every plain `go test`, so the parsers are exercised against real
// synthesized images (not just the tiny in-code f.Add seeds) even when
// nobody runs `go test -fuzz`.
//
// Usage (from the repo root):
//
//	go run ./tools/genfuzzcorpus
//
// Output is deterministic: the victim is synthesized from the paper key
// with the default placement seed, so regeneration is a no-op unless the
// synthesis pipeline itself changed.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"

	"snowbma"
	"snowbma/internal/bitstream"
	"snowbma/internal/store"
)

// writeCorpus writes one corpus file in Go's `go test fuzz v1` encoding.
func writeCorpus(dir, name string, vals ...any) error {
	var b bytes.Buffer
	b.WriteString("go test fuzz v1\n")
	for _, v := range vals {
		switch t := v.(type) {
		case []byte:
			fmt.Fprintf(&b, "[]byte(%q)\n", t)
		case string:
			fmt.Fprintf(&b, "string(%q)\n", t)
		case byte:
			fmt.Fprintf(&b, "byte(%q)\n", t)
		case int64:
			fmt.Fprintf(&b, "int64(%d)\n", t)
		case uint64:
			fmt.Fprintf(&b, "uint64(%d)\n", t)
		default:
			return fmt.Errorf("unsupported corpus value type %T", v)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644)
}

func main() {
	log.SetFlags(0)
	vic, err := snowbma.BuildVictim(snowbma.VictimConfig{Key: snowbma.PaperKey})
	if err != nil {
		log.Fatalf("synthesize victim: %v", err)
	}
	img := vic.Device.ReadFlash()

	p, err := bitstream.ParsePackets(img)
	if err != nil {
		log.Fatalf("parse packets: %v", err)
	}
	fdri := p.FDRI(img)
	r, err := bitstream.ParseRegions(fdri)
	if err != nil {
		log.Fatalf("parse regions: %v", err)
	}
	desc := fdri[r.DescOff : r.DescOff+r.DescLen]

	var kE, kA [bitstream.KeySize]byte
	kE[0], kA[0] = 1, 2
	var iv [16]byte
	sealed, err := bitstream.Seal(img, kE, kA, iv)
	if err != nil {
		log.Fatalf("seal: %v", err)
	}

	// A "write CRC" header as the image's last word, with no value word
	// after it: sync, FDRI Type 1 + Type 2 with two words, CRC header.
	var crcTail []byte
	for _, w := range []uint32{bitstream.SyncWord, bitstream.Type1(bitstream.RegFDRI, 0), bitstream.Type2(2),
		0x01234567, 0x89ABCDEF, bitstream.Type1(bitstream.RegCRC, 1)} {
		crcTail = binary.BigEndian.AppendUint32(crcTail, w)
	}

	// Descriptions that once panicked device.Load: a LUT with an unknown
	// slice type, and a constant ROM output net past NumNets. Neither
	// edit changes the length, so the description is rewritten in place.
	craft := func(edit func(*bitstream.Description)) []byte {
		d, err := bitstream.UnmarshalDescription(desc)
		if err != nil {
			log.Fatalf("decode description: %v", err)
		}
		edit(d)
		out := append([]byte(nil), img...)
		copy(out[p.FDRIOffset+r.DescOff:], bitstream.MarshalDescription(d))
		if err := bitstream.RecomputeCRC(out); err != nil {
			log.Fatalf("recompute CRC: %v", err)
		}
		return out
	}
	badSlice := craft(func(d *bitstream.Description) { d.LUTs[0].Loc.Type = 9 })
	badROMNet := craft(func(d *bitstream.Description) {
		i := slices.IndexFunc(d.BRAMs, func(b bitstream.BRAMRec) bool { return len(b.Addr) == 0 })
		d.BRAMs[i].Out[0] = 1 << 24
	})

	noCRC := append([]byte(nil), img...)
	if err := bitstream.DisableCRC(noCRC); err != nil {
		log.Fatalf("disable CRC: %v", err)
	}

	// store: a realistic durable-fleet log (full job lifecycles across
	// tenants, a recovered re-run, a failure) plus the crash shapes the
	// recovery path must absorb — torn tail, mid-log bit flip, and a
	// length field claiming more bytes than any record may hold.
	wal, err := store.EncodeLog([]store.Record{
		{Seq: 1, TimeUS: 1000, Job: "job-0001", State: "queued", Kind: "attack", Tenant: "acme",
			Spec: json.RawMessage(`{"kind":"attack","tenant":"acme","victim":{"seed":7}}`)},
		{Seq: 2, TimeUS: 1100, Job: "job-0002", State: "queued", Kind: "campaign", Tenant: "free",
			Spec: json.RawMessage(`{"kind":"campaign","campaign":{"runs":3,"seed":11}}`)},
		{Seq: 3, TimeUS: 1200, Job: "job-0001", State: "running"},
		{Seq: 4, TimeUS: 1900, Job: "job-0001", State: "done",
			Result: json.RawMessage(`{"verified":true,"loads":3}`)},
		{Seq: 5, TimeUS: 2000, Job: "job-0002", State: "running"},
		{Seq: 6, TimeUS: 2500, Job: "job-0002", State: "failed", Error: "device wedged"},
		{Seq: 7, TimeUS: 3000, Job: "job-0003", State: "queued", Kind: "attack", Recovered: true,
			Spec: json.RawMessage(`{"kind":"attack"}`)},
	})
	if err != nil {
		log.Fatalf("encode wal: %v", err)
	}
	walTorn := wal[:len(wal)-5]
	walFlip := append([]byte(nil), wal...)
	walFlip[len(walFlip)/3] ^= 0x40
	walHuge := append([]byte(nil), wal[:8]...) // magic only, then a lying length
	walHuge = binary.BigEndian.AppendUint32(walHuge, uint32(store.MaxRecordSize+1))
	walHuge = append(walHuge, 0xDE, 0xAD, 0xBE, 0xEF)

	type entry struct {
		dir, name string
		vals      []any
	}
	entries := []entry{
		// bitstream: the packet walker gets the real image plus headers
		// truncated at interesting boundaries.
		{"internal/bitstream/testdata/fuzz/FuzzParsePackets", "seed-synth-image", []any{img}},
		{"internal/bitstream/testdata/fuzz/FuzzParsePackets", "seed-truncated-header", []any{img[:8]}},
		{"internal/bitstream/testdata/fuzz/FuzzParsePackets", "seed-sealed-envelope", []any{sealed}},
		{"internal/bitstream/testdata/fuzz/FuzzParsePackets", "seed-truncated-crc-write", []any{crcTail}},
		{"internal/bitstream/testdata/fuzz/FuzzParseRegions", "seed-synth-fdri", []any{fdri}},
		{"internal/bitstream/testdata/fuzz/FuzzParseRegions", "seed-header-frame-only", []any{fdri[:bitstream.FrameBytes]}},
		{"internal/bitstream/testdata/fuzz/FuzzUnmarshalDescription", "seed-synth-description", []any{desc}},
		{"internal/bitstream/testdata/fuzz/FuzzUnmarshalDescription", "seed-truncated-description", []any{desc[:len(desc)/2]}},
		{"internal/bitstream/testdata/fuzz/FuzzOpenEnvelope", "seed-sealed-image", []any{sealed}},
		{"internal/bitstream/testdata/fuzz/FuzzOpenEnvelope", "seed-clipped-tail", []any{sealed[:len(sealed)-16]}},

		// device: a loadable image, its CRC-disabled variant (content
		// mutations get past the checksum), a one-byte-short copy and
		// two crafted descriptions.
		{"internal/device/testdata/fuzz/FuzzLoad", "seed-synth-image", []any{img}},
		{"internal/device/testdata/fuzz/FuzzLoad", "seed-crc-disabled", []any{noCRC}},
		{"internal/device/testdata/fuzz/FuzzLoad", "seed-short-image", []any{img[:len(img)-1]}},
		{"internal/device/testdata/fuzz/FuzzLoad", "seed-truncated-crc-write", []any{crcTail}},
		{"internal/device/testdata/fuzz/FuzzLoad", "seed-bad-slice-type", []any{badSlice}},
		{"internal/device/testdata/fuzz/FuzzLoad", "seed-rom-net-out-of-range", []any{badROMNet}},

		// device batch differential: lane counts around the width
		// boundaries with distinct patch/IV seeds.
		{"internal/device/testdata/fuzz/FuzzClockBatchDifferential", "seed-lanes-3", []any{byte(2), int64(99), uint64(0x0011223344556677)}},
		{"internal/device/testdata/fuzz/FuzzClockBatchDifferential", "seed-lanes-63", []any{byte(62), int64(-17), uint64(0xFFFFFFFFFFFFFFFF)}},
		{"internal/device/testdata/fuzz/FuzzClockBatchDifferential", "seed-lanes-wrap", []any{byte(200), int64(5), uint64(0)}},

		// store: the durable job log decoder gets a full multi-tenant
		// lifecycle log and its three canonical corruption shapes.
		{"internal/store/testdata/fuzz/FuzzWALDecode", "seed-fleet-log", []any{wal}},
		{"internal/store/testdata/fuzz/FuzzWALDecode", "seed-torn-tail", []any{walTorn}},
		{"internal/store/testdata/fuzz/FuzzWALDecode", "seed-bit-flip", []any{walFlip}},
		{"internal/store/testdata/fuzz/FuzzWALDecode", "seed-lying-length", []any{walHuge}},

		// boolfn: paper expressions (F8/F19 style), operator soup and
		// near-miss syntax the in-code seeds don't cover.
		{"internal/boolfn/testdata/fuzz/FuzzParse", "seed-z-path", []any{"(a1^a2^a3)a4a5!a6"}},
		{"internal/boolfn/testdata/fuzz/FuzzParse", "seed-f8-style", []any{"a6(a1a2 + !a1a3) + !a6(a1a4 + !a1a5)"}},
		{"internal/boolfn/testdata/fuzz/FuzzParse", "seed-postfix-negation", []any{"a1'a2' ^ (a3 + a4')"}},
		{"internal/boolfn/testdata/fuzz/FuzzParse", "seed-constants", []any{"1 ^ 0 + a1(1)"}},
		{"internal/boolfn/testdata/fuzz/FuzzParse", "seed-deep-nesting", []any{"((((((a1 ^ a2))))))!((a3))"}},
		{"internal/boolfn/testdata/fuzz/FuzzParse", "seed-unbalanced", []any{"((a1 ^ a2"}},
	}
	for _, e := range entries {
		if err := writeCorpus(e.dir, e.name, e.vals...); err != nil {
			log.Fatalf("write %s/%s: %v", e.dir, e.name, err)
		}
	}
	log.Printf("wrote %d corpus files", len(entries))
}
