package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Configuration register addresses (7-series subset).
const (
	RegCRC    = 0x00
	RegFAR    = 0x01
	RegFDRI   = 0x02
	RegCMD    = 0x04
	RegMASK   = 0x06
	RegCOR0   = 0x09
	RegIDCODE = 0x0C
)

// CMD register opcodes.
const (
	CmdNull   = 0x0
	CmdWCFG   = 0x1
	CmdRCRC   = 0x7
	CmdGRest  = 0xA
	CmdDesync = 0xD
)

// Well-known words.
const (
	SyncWord = 0xAA995566
	NopWord  = 0x20000000
	// IDCodeArtix7 is the XC7A100T id code.
	IDCodeArtix7 = 0x13631093
	// writeFDRIHeader is the Type 1 "write FDRI, count 0" word the paper
	// searches for (0x30004000).
	writeFDRIHeader = 0x30004000
	// writeCRCHeader is the Type 1 "write CRC, count 1" word (0x30000001).
	writeCRCHeader = 0x30000001
)

// Type1 builds a Type 1 write packet header for a register.
func Type1(reg uint32, wordCount int) uint32 {
	return 1<<29 | 2<<27 | (reg&0x3FFF)<<13 | uint32(wordCount)&0x7FF
}

// Type2 builds a Type 2 write packet header carrying wordCount words.
func Type2(wordCount int) uint32 {
	return 2<<29 | 2<<27 | uint32(wordCount)&0x07FFFFFF
}

// crcUpdate folds one (register address, data word) pair into the
// running configuration CRC. 7-series hardware computes a CRC-32C over
// the 37-bit value {addr[4:0], data[31:0]} per written word, LSB first
// (polynomial 0x1EDC6F41, reflected 0x82F63B78). The fold is table
// driven: four byte steps through the reflected Castagnoli table for the
// data word, low byte first, then one 5-bit step for the address. The
// bit-serial definition it replaces is the oracle in crc_test.go.
func crcUpdate(crc uint32, reg uint32, word uint32) uint32 {
	crc = crcByteTable[byte(crc^word)] ^ crc>>8
	crc = crcByteTable[byte(crc^word>>8)] ^ crc>>8
	crc = crcByteTable[byte(crc^word>>16)] ^ crc>>8
	crc = crcByteTable[byte(crc^word>>24)] ^ crc>>8
	return crcAddrTable[(crc^reg)&0x1F] ^ crc>>5
}

// crcByteTable advances the CRC register by eight zero bits from each
// low-byte value; crcAddrTable does the same for five bits.
var (
	crcByteTable = crc32.MakeTable(crc32.Castagnoli)
	crcAddrTable = func() (t [32]uint32) {
		for i := range t {
			c := uint32(i)
			for k := 0; k < 5; k++ {
				if c&1 == 1 {
					c = c>>1 ^ crc32.Castagnoli
				} else {
					c >>= 1
				}
			}
			t[i] = c
		}
		return t
	}()
)

// Header is the unsynchronized preamble: pad words, bus-width detection
// pattern, and the sync word.
var header = []uint32{
	0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF,
	0x000000BB, 0x11220044,
	0xFFFFFFFF, 0xFFFFFFFF,
	SyncWord,
}

// buildPackets wraps FDRI frame data in a realistic packet sequence and
// returns the complete bitstream bytes (big-endian words, as on the
// configuration bus).
func buildPackets(fdri []uint32) []byte {
	var words []uint32
	words = append(words, header...)
	emit := func(w ...uint32) { words = append(words, w...) }
	// CRC coverage begins right after the RCRC command (paper V-B).
	emit(Type1(RegCMD, 1), CmdRCRC)
	emit(NopWord)
	emit(Type1(RegIDCODE, 1), IDCodeArtix7)
	emit(Type1(RegCOR0, 1), 0x02003FE5)
	emit(Type1(RegMASK, 1), 0x00000001)
	emit(Type1(RegFAR, 1), 0x00000000)
	emit(Type1(RegCMD, 1), CmdWCFG)
	emit(NopWord)
	emit(writeFDRIHeader, Type2(len(fdri)))
	emit(fdri...)
	// CRC over everything written since RCRC, then GRESTORE and DESYNC.
	emit(writeCRCHeader, 0) // placeholder, fixed by RecomputeCRC below
	emit(Type1(RegCMD, 1), CmdGRest)
	emit(Type1(RegCMD, 1), CmdDesync)
	emit(NopWord, NopWord)

	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	if err := RecomputeCRC(out); err != nil {
		panic("bitstream: internal CRC recompute failed: " + err.Error())
	}
	return out
}

// WrapFDRI builds a complete loadable bitstream around a raw frame
// region — what an attacker does with configuration readback data: the
// packet framing is public, so frames read over JTAG become a bootable
// image without ever touching the flash.
func WrapFDRI(fdri []byte) ([]byte, error) {
	if len(fdri)%4 != 0 {
		return nil, errors.New("bitstream: FDRI data not word aligned")
	}
	words := make([]uint32, len(fdri)/4)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(fdri[4*i:])
	}
	return buildPackets(words), nil
}

// Parsed describes the packet structure of a bitstream.
type Parsed struct {
	// SyncOffset is the byte offset of the word after the sync word.
	SyncOffset int
	// FDRIOffset and FDRILen delimit the frame data, in bytes.
	FDRIOffset int
	FDRILen    int
	// CRCOffset is the byte offset of the "write CRC" header, or -1 when
	// the CRC write was zeroed out (disabled).
	CRCOffset int
	// CRCValue is the stored CRC (when present).
	CRCValue uint32
}

// ParsePackets walks the packet stream. It implements the same scanning
// logic the paper describes: find 0x30004000, read the Type 2 word count,
// locate the CRC write.
func ParsePackets(b []byte) (*Parsed, error) {
	if len(b)%4 != 0 {
		return nil, errors.New("bitstream: length not word aligned")
	}
	word := func(i int) uint32 { return binary.BigEndian.Uint32(b[4*i:]) }
	n := len(b) / 4
	p := &Parsed{SyncOffset: -1, FDRIOffset: -1, CRCOffset: -1}
	i := 0
	for ; i < n; i++ {
		if word(i) == SyncWord {
			p.SyncOffset = 4 * (i + 1)
			i++
			break
		}
	}
	if p.SyncOffset < 0 {
		return nil, errors.New("bitstream: sync word not found")
	}
	for i < n {
		w := word(i)
		switch {
		case w == NopWord || w == 0:
			i++
		case w>>29 == 1: // Type 1
			reg := w >> 13 & 0x3FFF
			count := int(w & 0x7FF)
			if reg == RegFDRI && count == 0 {
				// Expect a Type 2 with the real count.
				if i+1 >= n || word(i+1)>>29 != 2 {
					return nil, errors.New("bitstream: FDRI header without Type 2 packet")
				}
				fdriWords := int(word(i+1) & 0x07FFFFFF)
				p.FDRIOffset = 4 * (i + 2)
				p.FDRILen = 4 * fdriWords
				if p.FDRIOffset+p.FDRILen > len(b) {
					return nil, errors.New("bitstream: FDRI extends past end")
				}
				i += 2 + fdriWords
				continue
			}
			if reg == RegCRC && count == 1 {
				if i+1 >= n {
					return nil, errors.New("bitstream: CRC write truncated at end of image")
				}
				p.CRCOffset = 4 * i
				p.CRCValue = word(i + 1)
			}
			i += 1 + count
		case w>>29 == 2: // Type 2 without preceding Type 1
			i += 1 + int(w&0x07FFFFFF)
		default:
			return nil, fmt.Errorf("bitstream: unrecognized word %08x at offset %d", w, 4*i)
		}
	}
	if p.FDRIOffset < 0 {
		return nil, errors.New("bitstream: no FDRI write found")
	}
	return p, nil
}

// FDRI returns the frame-data region of a parsed bitstream as a
// sub-slice (mutations write through).
func (p *Parsed) FDRI(b []byte) []byte {
	return b[p.FDRIOffset : p.FDRIOffset+p.FDRILen]
}

// computeCRC replays the packet stream and returns the expected CRC at
// the position of the CRC write.
func computeCRC(b []byte) (uint32, error) {
	word := func(i int) uint32 { return binary.BigEndian.Uint32(b[4*i:]) }
	n := len(b) / 4
	i := 0
	for ; i < n && word(i) != SyncWord; i++ {
	}
	if i == n {
		return 0, errors.New("bitstream: sync word not found")
	}
	i++
	crc := uint32(0)
	for i < n {
		w := word(i)
		switch {
		case w == NopWord || w == 0:
			i++
		case w>>29 == 1:
			reg := w >> 13 & 0x3FFF
			count := int(w & 0x7FF)
			if reg == RegCRC {
				return crc, nil
			}
			if reg == RegCMD && count == 1 && word(i+1) == CmdRCRC {
				crc = 0
				i += 2
				continue
			}
			if reg == RegFDRI && count == 0 && i+1 < n && word(i+1)>>29 == 2 {
				fdriWords := int(word(i+1) & 0x07FFFFFF)
				for j := 0; j < fdriWords; j++ {
					crc = crcUpdate(crc, RegFDRI, word(i+2+j))
				}
				i += 2 + fdriWords
				continue
			}
			for j := 0; j < count; j++ {
				crc = crcUpdate(crc, reg, word(i+1+j))
			}
			i += 1 + count
		case w>>29 == 2:
			i += 1 + int(w&0x07FFFFFF)
		default:
			return 0, fmt.Errorf("bitstream: unrecognized word %08x", w)
		}
	}
	return crc, nil
}

// RecomputeCRC replaces the stored CRC with the value matching the
// current content — the "recompute and replace" option of Section V-B.
func RecomputeCRC(b []byte) error {
	p, err := ParsePackets(b)
	if err != nil {
		return err
	}
	if p.CRCOffset < 0 {
		return errors.New("bitstream: CRC write not present (disabled?)")
	}
	crc, err := computeCRC(b)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(b[p.CRCOffset+4:], crc)
	return nil
}

// DisableCRC implements the paper's preferred approach: replace the
// command 0x30000001 "write CRC register" and the follow-up CRC word by
// all-0 words, in every position where they occur.
func DisableCRC(b []byte) error {
	p, err := ParsePackets(b)
	if err != nil {
		return err
	}
	if p.CRCOffset < 0 {
		return nil // already disabled
	}
	for off := p.CRCOffset; ; {
		binary.BigEndian.PutUint32(b[off:], 0)
		binary.BigEndian.PutUint32(b[off+4:], 0)
		q, err := ParsePackets(b)
		if err != nil {
			return err
		}
		if q.CRCOffset < 0 {
			return nil
		}
		off = q.CRCOffset
	}
}

// CheckCRC verifies the stored CRC. A disabled CRC (no CRC write)
// passes, mirroring device behaviour.
func CheckCRC(b []byte) error {
	p, err := ParsePackets(b)
	if err != nil {
		return err
	}
	if p.CRCOffset < 0 {
		return nil
	}
	crc, err := computeCRC(b)
	if err != nil {
		return err
	}
	if crc != p.CRCValue {
		return fmt.Errorf("bitstream: CRC mismatch: stored %08x, computed %08x (INIT_B would go low)",
			p.CRCValue, crc)
	}
	return nil
}
