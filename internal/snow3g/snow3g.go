package snow3g

import (
	"errors"
	"fmt"
)

// Key holds the four 32-bit key words k0..k3 in the order used by the
// paper and the specification's γ(K, IV) loading: s4 = k0, ..., s7 = k3.
type Key [4]uint32

// IV holds the four 32-bit initialization-vector words iv0..iv3 with
// s15 = k3 ⊕ iv0, s12 = k0 ⊕ iv1, s10 = k2 ⊕ 1 ⊕ iv2, s9 = k1 ⊕ 1 ⊕ iv3.
type IV [4]uint32

// State is the 16-word LFSR state (s0, s1, ..., s15).
type State [16]uint32

// Fault configures the stuck-at faults the bitstream modification attack
// injects. The zero value is the unmodified cipher.
type Fault struct {
	// FSMStuckInit forces the FSM output word W to 0 during the 32
	// initialization rounds, reducing the LFSR state update to the linear
	// map L (paper Section VI-A, fault α on the feedback path).
	FSMStuckInit bool
	// FSMStuckKeystream forces W to 0 during keystream generation, so
	// z_t = s0 of the running state (fault α on the z_t path).
	FSMStuckKeystream bool
	// LFSRZeroLoad loads the all-0 vector instead of γ(K, IV), making the
	// keystream key independent (paper Section VI-D, fault β).
	LFSRZeroLoad bool
}

// Cipher is a SNOW 3G instance. Create one with New, then call Init before
// Keystream. The same instance may be re-initialized any number of times.
type Cipher struct {
	lfsr     State
	r1       uint32
	r2       uint32
	r3       uint32
	fault    Fault
	xorPlus  bool
	inKeyGen bool
	ready    bool
}

// New returns a cipher with the given fault configuration. Use a zero
// Fault for the reference cipher.
func New(fault Fault) *Cipher {
	return &Cipher{fault: fault}
}

// NewXorVariant returns SNOW 3G⊕, the analysis variant of the paper's
// reference [6] in which both modulo-2^32 additions are replaced by
// XOR. It exists for cryptanalytic experiments; it is NOT the standard
// cipher.
func NewXorVariant(fault Fault) *Cipher {
	return &Cipher{fault: fault, xorPlus: true}
}

// box is the cipher's ⊞: integer addition, or XOR in the ⊕ variant.
func (c *Cipher) box(a, b uint32) uint32 {
	if c.xorPlus {
		return a ^ b
	}
	return a + b
}

// Gamma computes the initial LFSR load γ(K, IV) defined in Section III of
// the paper (and Section 4.1 of the specification), where 1 denotes the
// all-1s word.
func Gamma(k Key, iv IV) State {
	const ones = 0xFFFFFFFF
	return State{
		k[0] ^ ones,         // s0
		k[1] ^ ones,         // s1
		k[2] ^ ones,         // s2
		k[3] ^ ones,         // s3
		k[0],                // s4
		k[1],                // s5
		k[2],                // s6
		k[3],                // s7
		k[0] ^ ones,         // s8
		k[1] ^ ones ^ iv[3], // s9
		k[2] ^ ones ^ iv[2], // s10
		k[3] ^ ones,         // s11
		k[0] ^ iv[1],        // s12
		k[1],                // s13
		k[2],                // s14
		k[3] ^ iv[0],        // s15
	}
}

// KeyFromState extracts the key from an initial LFSR state S⁰ = γ(K, IV):
// s4..s7 hold k0..k3 directly (paper Section VI-D.3).
func KeyFromState(s State) Key {
	return Key{s[4], s[5], s[6], s[7]}
}

// IVFromState extracts the IV from an initial LFSR state S⁰ = γ(K, IV).
func IVFromState(s State) IV {
	const ones = 0xFFFFFFFF
	k := KeyFromState(s)
	return IV{
		s[15] ^ k[3],
		s[12] ^ k[0],
		s[10] ^ k[2] ^ ones,
		s[9] ^ k[1] ^ ones,
	}
}

// ConsistentGamma reports whether s has the redundancy structure of a
// γ(K, IV) load (e.g. s0 = ¬s4, s13 = s5). The attack uses it as a sanity
// check that LFSR reversal landed on a genuine initial state.
func ConsistentGamma(s State) bool {
	const ones = 0xFFFFFFFF
	return s[0] == s[4]^ones && s[1] == s[5]^ones && s[2] == s[6]^ones &&
		s[3] == s[7]^ones && s[8] == s[0] && s[13] == s[5] &&
		s[14] == s[6] && s[11] == s[3]
}

// clockFSM advances the FSM one step and returns the output word
// W = (s15 ⊞ R1) ⊕ R2. The register update is r = R2 ⊞ (R3 ⊕ s5);
// R3 = S2(R2); R2 = S1(R1); R1 = r.
func (c *Cipher) clockFSM() uint32 {
	w := c.box(c.lfsr[15], c.r1) ^ c.r2
	r := c.box(c.r2, c.r3^c.lfsr[5])
	c.r3 = S2(c.r2)
	c.r2 = S1(c.r1)
	c.r1 = r
	return w
}

// feedback computes the linear part of the LFSR feedback for state s:
// α·s0 ⊕ s2 ⊕ α⁻¹·s11 expressed through the byte-shift/MULα/DIVα
// decomposition of the specification.
func feedback(s *State) uint32 {
	return (s[0] << 8) ^ mulAlpha[byte(s[0]>>24)] ^ s[2] ^
		(s[11] >> 8) ^ divAlpha[byte(s[11])]
}

// clockLFSR shifts the LFSR one step, feeding back the linear term XOR w
// (w = W during initialization, w = 0 in keystream mode).
func (c *Cipher) clockLFSR(w uint32) {
	v := feedback(&c.lfsr) ^ w
	copy(c.lfsr[:], c.lfsr[1:])
	c.lfsr[15] = v
}

// Init loads γ(K, IV) (or the all-0 vector under the LFSRZeroLoad fault),
// zeroes the FSM, and runs the 32 initialization rounds. No keystream is
// produced during initialization.
func (c *Cipher) Init(k Key, iv IV) {
	if c.fault.LFSRZeroLoad {
		c.lfsr = State{}
	} else {
		c.lfsr = Gamma(k, iv)
	}
	c.r1, c.r2, c.r3 = 0, 0, 0
	for i := 0; i < 32; i++ {
		w := c.clockFSM()
		if c.fault.FSMStuckInit {
			w = 0
		}
		c.clockLFSR(w)
	}
	// Keystream mode begins with one clock whose FSM output is discarded.
	c.clockFSM()
	c.clockLFSR(0)
	c.inKeyGen = true
	c.ready = true
}

// Keystream appends n keystream words to dst and returns the result.
// It panics if Init has not been called, mirroring misuse of the hardware.
func (c *Cipher) Keystream(dst []uint32, n int) []uint32 {
	if !c.ready {
		panic("snow3g: Keystream called before Init")
	}
	for i := 0; i < n; i++ {
		w := c.clockFSM()
		if c.fault.FSMStuckKeystream {
			w = 0
		}
		dst = append(dst, w^c.lfsr[0])
		c.clockLFSR(0)
	}
	return dst
}

// KeystreamWords is a convenience wrapper returning a fresh slice of n
// keystream words.
func (c *Cipher) KeystreamWords(n int) []uint32 {
	return c.Keystream(make([]uint32, 0, n), n)
}

// StepForward applies the linear LFSR map L once to s (no FSM feedback).
func StepForward(s State) State {
	v := feedback(&s)
	var out State
	copy(out[:], s[1:])
	out[15] = v
	return out
}

// StepBack inverts one linear LFSR step: given L(S) it returns S. The
// dropped word s0 is recovered by peeling the byte-shifted term off the
// feedback using the invertibility of the low byte of MULα.
func StepBack(s State) State {
	var prev State
	copy(prev[1:], s[:15])
	// s[15] = (prev0<<8) ^ MULα(prev0>>24) ^ prev2 ^ (prev11>>8) ^ DIVα(prev11&0xff)
	x := s[15] ^ prev[2] ^ (prev[11] >> 8) ^ divAlpha[byte(prev[11])]
	// Low byte of x comes only from MULα (the shift contributes 0 there).
	hi := invMulAlphaLow[byte(x)]
	rest := (x ^ mulAlpha[hi]) >> 8
	prev[0] = uint32(hi)<<24 | rest
	return prev
}

// Rewind applies StepBack n times.
func Rewind(s State, n int) State {
	for i := 0; i < n; i++ {
		s = StepBack(s)
	}
	return s
}

// errShortKeystream and errNotGamma are shared by the two key-recovery
// implementations (table rewind and matrix algebra).
func errShortKeystream(n int) error {
	return fmt.Errorf("snow3g: need 16 keystream words, have %d", n)
}

var errNotGamma = errors.New("snow3g: rewound state is not a γ(K, IV) load; fault hypothesis wrong")

// RecoverFromKeystream implements the paper's key extraction (Section
// VI-A): the 16 keystream words observed from a device whose FSM output is
// stuck at 0 during initialization and keystream generation are exactly
// the LFSR state S³³; rewinding 33 linear steps yields S⁰ = γ(K, IV) and
// hence the key. It returns an error if fewer than 16 words are supplied
// or if the recovered state lacks γ's redundancy (meaning the keystream
// did not come from the hypothesized fault).
func RecoverFromKeystream(z []uint32) (Key, IV, State, error) {
	if len(z) < 16 {
		return Key{}, IV{}, State{}, errShortKeystream(len(z))
	}
	var s33 State
	copy(s33[:], z[:16])
	s0 := Rewind(s33, 33)
	if !ConsistentGamma(s0) {
		return Key{}, IV{}, s0, errNotGamma
	}
	return KeyFromState(s0), IVFromState(s0), s0, nil
}
