package bitstream

import (
	"math/rand"
	"testing"
)

// crcUpdateBitSerial is the configuration CRC as the hardware defines
// it: 37 LFSR steps over {addr[4:0], data[31:0]}, LSB first, reflected
// Castagnoli polynomial. crcUpdate's table fold must equal it.
func crcUpdateBitSerial(crc uint32, reg uint32, word uint32) uint32 {
	const poly = 0x82F63B78 // reversed Castagnoli
	val := uint64(reg&0x1F)<<32 | uint64(word)
	for i := 0; i < 37; i++ {
		crc ^= uint32(val>>uint(i)) & 1
		if crc&1 == 1 {
			crc = crc>>1 ^ poly
		} else {
			crc >>= 1
		}
	}
	return crc
}

func TestCRCFoldMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for reg := uint32(0); reg < 32; reg++ {
		for i := 0; i < 10000; i++ {
			crc, word := rng.Uint32(), rng.Uint32()
			// Only addr[4:0] enters the CRC; the high register bits must
			// be ignored by both folds.
			addr := reg | rng.Uint32()<<5
			if got, want := crcUpdate(crc, addr, word), crcUpdateBitSerial(crc, addr, word); got != want {
				t.Fatalf("crcUpdate(%08x, %#x, %08x) = %08x, bit-serial %08x", crc, addr, word, got, want)
			}
		}
	}
}
