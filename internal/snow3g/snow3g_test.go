package snow3g

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// paperKey and paperIV are the key and IV recovered in the paper's Table V
// (the ETSI SNOW 3G test-set key). IV is derived from Table V through the
// γ structure: iv0 = s15 ⊕ k3, iv1 = s12 ⊕ k0, iv2 = s10 ⊕ k2 ⊕ 1,
// iv3 = s9 ⊕ k1 ⊕ 1.
var (
	paperKey = Key{0x2BD6459F, 0x82C5B300, 0x952C4910, 0x4881FF48}
	paperIV  = IV{
		0xA283B85C ^ 0x4881FF48,
		0x868A081B ^ 0x2BD6459F,
		0xB5CC2DCA ^ 0x952C4910 ^ 0xFFFFFFFF,
		0x6131B8A0 ^ 0x82C5B300 ^ 0xFFFFFFFF,
	}
)

// tableIII is the key-independent keystream of paper Table III: FSM output
// stuck to 0 during initialization, LFSR initialized to the all-0 state.
var tableIII = []uint32{
	0xa1fb4788, 0xe4382f8e, 0x3b72471c, 0x33ebb59a,
	0x32ac43c7, 0x5eebfd82, 0x3a325fd4, 0x1e1d7001,
	0xb7f15767, 0x3282c5b0, 0x103da78f, 0xe42761e4,
	0xc6ded1bb, 0x089fa36c, 0x01c7c690, 0xbf921256,
}

// tableIV is the keystream of paper Table IV: FSM output stuck to 0 during
// both initialization and keystream generation, real γ(K, IV) load.
var tableIV = []uint32{
	0x3ffe4851, 0x35d1c393, 0x5914acef, 0xe98446cc,
	0x689782d9, 0x8abdb7fc, 0xa11b0377, 0x5a2dd294,
	0x5deb29fa, 0xc2c6009a, 0xa82ee62f, 0x925268ed,
	0xd04e2c33, 0x3890311b, 0xe8d27b84, 0xa70aeeaa,
}

// tableV is the recovered initial LFSR state S⁰ of paper Table V.
var tableV = State{
	0xd429ba60, 0x7d3a4cff, 0x6ad3b6ef, 0xb77e00b7,
	0x2bd6459f, 0x82c5b300, 0x952c4910, 0x4881ff48,
	0xd429ba60, 0x6131b8a0, 0xb5cc2dca, 0xb77e00b7,
	0x868a081b, 0x82c5b300, 0x952c4910, 0xa283b85c,
}

func TestSRKnownEntries(t *testing.T) {
	// Spot checks against the published Rijndael S-box.
	cases := map[byte]byte{0x00: 0x63, 0x01: 0x7C, 0x53: 0xED, 0xFF: 0x16, 0x10: 0xCA}
	for in, want := range cases {
		if got := sr[in]; got != want {
			t.Errorf("SR(%#02x) = %#02x, want %#02x", in, got, want)
		}
	}
}

func TestSQIsPermutationWithFixedZero(t *testing.T) {
	if sq[0] != 0x25 {
		t.Errorf("SQ(0) = %#02x, want 0x25 (g49(0) ⊕ 0x25)", sq[0])
	}
	var seen [256]bool
	for i := 0; i < 256; i++ {
		v := sq[i]
		if seen[v] {
			t.Fatalf("SQ is not a permutation: duplicate value %#02x", v)
		}
		seen[v] = true
	}
}

func TestTableIIIExact(t *testing.T) {
	c := New(Fault{FSMStuckInit: true, LFSRZeroLoad: true})
	c.Init(Key{}, IV{}) // key/IV irrelevant: the β fault loads all-0
	got := c.KeystreamWords(16)
	for i, want := range tableIII {
		if got[i] != want {
			t.Fatalf("Table III word %d: got %08x, want %08x", i+1, got[i], want)
		}
	}
}

func TestTableIIIKeyIndependent(t *testing.T) {
	// The whole point of fault β: any key/IV produces the same keystream.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		var k Key
		var iv IV
		for i := range k {
			k[i], iv[i] = rng.Uint32(), rng.Uint32()
		}
		c := New(Fault{FSMStuckInit: true, LFSRZeroLoad: true})
		c.Init(k, iv)
		got := c.KeystreamWords(16)
		for i, want := range tableIII {
			if got[i] != want {
				t.Fatalf("trial %d: keystream depends on key (word %d: %08x != %08x)",
					trial, i+1, got[i], want)
			}
		}
	}
}

func TestTableIVExact(t *testing.T) {
	c := New(Fault{FSMStuckInit: true, FSMStuckKeystream: true})
	c.Init(paperKey, paperIV)
	got := c.KeystreamWords(16)
	for i, want := range tableIV {
		if got[i] != want {
			t.Fatalf("Table IV word %d: got %08x, want %08x", i+1, got[i], want)
		}
	}
}

func TestTableVExact(t *testing.T) {
	key, iv, s0, err := RecoverFromKeystream(tableIV)
	if err != nil {
		t.Fatalf("RecoverFromKeystream: %v", err)
	}
	if s0 != tableV {
		t.Fatalf("recovered S⁰ = %08x, want Table V %08x", s0, tableV)
	}
	if key != paperKey {
		t.Fatalf("recovered key %08x, want %08x", key, paperKey)
	}
	if iv != paperIV {
		t.Fatalf("recovered IV %08x, want %08x", iv, paperIV)
	}
}

func TestGammaMatchesTableV(t *testing.T) {
	if got := Gamma(paperKey, paperIV); got != tableV {
		t.Fatalf("Gamma(K, IV) = %08x, want Table V %08x", got, tableV)
	}
}

func TestKeystreamDeterministicAndKeyed(t *testing.T) {
	a := New(Fault{})
	a.Init(paperKey, paperIV)
	b := New(Fault{})
	b.Init(paperKey, paperIV)
	za, zb := a.KeystreamWords(64), b.KeystreamWords(64)
	for i := range za {
		if za[i] != zb[i] {
			t.Fatalf("nondeterministic keystream at word %d", i)
		}
	}
	c := New(Fault{})
	k2 := paperKey
	k2[0] ^= 1
	c.Init(k2, paperIV)
	zc := c.KeystreamWords(64)
	same := true
	for i := range za {
		if za[i] != zc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("flipping a key bit did not change the keystream")
	}
}

func TestStepBackInvertsStepForward(t *testing.T) {
	f := func(raw [16]uint32) bool {
		s := State(raw)
		return StepBack(StepForward(s)) == s && StepForward(StepBack(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRewindMatchesIteratedForward(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s State
	for i := range s {
		s[i] = rng.Uint32()
	}
	fwd := s
	for i := 0; i < 33; i++ {
		fwd = StepForward(fwd)
	}
	if got := Rewind(fwd, 33); got != s {
		t.Fatalf("Rewind(L^33(S), 33) = %08x, want %08x", got, s)
	}
}

func TestFeedbackIsLinear(t *testing.T) {
	// v(S ⊕ T) = v(S) ⊕ v(T): the feedback must be GF(2)-linear, the core
	// fact behind the attack once the FSM is disconnected.
	f := func(a, b [16]uint32) bool {
		sa, sb := State(a), State(b)
		var sx State
		for i := range sx {
			sx[i] = sa[i] ^ sb[i]
		}
		return feedback(&sx) == feedback(&sa)^feedback(&sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroStateIsFixedPointOfL(t *testing.T) {
	// The all-0 LFSR state stays all-0 under the linear map — the property
	// that makes the key-independent exploration technique work.
	s := State{}
	for i := 0; i < 40; i++ {
		s = StepForward(s)
	}
	if s != (State{}) {
		t.Fatalf("all-0 state escaped to %08x", s)
	}
}

func TestFaultedInitIsLinear(t *testing.T) {
	// With FSMStuckInit the state after init must be L^33 of the load
	// (32 init rounds + 1 discarded keystream-mode clock).
	c := New(Fault{FSMStuckInit: true})
	c.Init(paperKey, paperIV)
	want := Gamma(paperKey, paperIV)
	for i := 0; i < 33; i++ {
		want = StepForward(want)
	}
	if got := c.lfsr; got != want {
		t.Fatalf("faulted init state %08x, want L^33(γ) %08x", got, want)
	}
}

func TestRecoverRejectsHealthyKeystream(t *testing.T) {
	c := New(Fault{})
	c.Init(paperKey, paperIV)
	z := c.KeystreamWords(16)
	if _, _, _, err := RecoverFromKeystream(z); err == nil {
		t.Fatal("RecoverFromKeystream accepted a non-faulty keystream")
	}
}

func TestRecoverRejectsShortKeystream(t *testing.T) {
	if _, _, _, err := RecoverFromKeystream(make([]uint32, 15)); err == nil {
		t.Fatal("RecoverFromKeystream accepted 15 words")
	}
}

func TestRecoverRandomKeys(t *testing.T) {
	// End-to-end key extraction property over random keys and IVs.
	f := func(kRaw, ivRaw [4]uint32) bool {
		k, iv := Key(kRaw), IV(ivRaw)
		c := New(Fault{FSMStuckInit: true, FSMStuckKeystream: true})
		c.Init(k, iv)
		gotK, gotIV, _, err := RecoverFromKeystream(c.KeystreamWords(16))
		return err == nil && gotK == k && gotIV == iv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeystreamPanicsBeforeInit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Fault{}).KeystreamWords(1)
}

func TestInitStateMatchesInitWithGamma(t *testing.T) {
	a := New(Fault{})
	a.Init(paperKey, paperIV)
	b := New(Fault{})
	b.InitState(Gamma(paperKey, paperIV))
	za, zb := a.KeystreamWords(8), b.KeystreamWords(8)
	for i := range za {
		if za[i] != zb[i] {
			t.Fatalf("InitState diverges from Init at word %d", i)
		}
	}
}

func TestMulAlphaLowByteBijective(t *testing.T) {
	var seen [256]bool
	for i := 0; i < 256; i++ {
		lo := byte(MulAlpha(byte(i)))
		if seen[lo] {
			t.Fatalf("low byte of MULα not bijective: collision at %#02x", lo)
		}
		seen[lo] = true
	}
}

func TestConsistentGamma(t *testing.T) {
	if !ConsistentGamma(Gamma(paperKey, paperIV)) {
		t.Fatal("γ(K, IV) failed its own consistency check")
	}
	bad := Gamma(paperKey, paperIV)
	bad[13] ^= 1
	if ConsistentGamma(bad) {
		t.Fatal("corrupted state passed consistency check")
	}
}

func BenchmarkKeystream(b *testing.B) {
	c := New(Fault{})
	c.Init(paperKey, paperIV)
	buf := make([]uint32, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.Keystream(buf[:0], 256)
	}
}

func BenchmarkInit(b *testing.B) {
	c := New(Fault{})
	for i := 0; i < b.N; i++ {
		c.Init(paperKey, paperIV)
	}
}

func BenchmarkRewind33(b *testing.B) {
	var s State
	copy(s[:], tableIV)
	for i := 0; i < b.N; i++ {
		_ = Rewind(s, 33)
	}
}

func TestTTablesReconstructSBoxes(t *testing.T) {
	var t1, t2 [4][256]uint32
	for b := 0; b < 4; b++ {
		t1[b], t2[b] = S1TTable(b), S2TTable(b)
	}
	f := func(w uint32) bool {
		b0, b1, b2, b3 := byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
		s1 := t1[0][b0] ^ t1[1][b1] ^ t1[2][b2] ^ t1[3][b3]
		s2 := t2[0][b0] ^ t2[1][b1] ^ t2[2][b2] ^ t2[3][b3]
		return s1 == S1(w) && s2 == S2(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestETSITestSetKeystream(t *testing.T) {
	// The key/IV implied by the paper's Table V is ETSI test data; the
	// healthy cipher must produce the specification's keystream
	// (implementors' test data, test set 4: z1 = ABEE9704).
	c := New(Fault{})
	c.Init(paperKey, paperIV)
	z := c.KeystreamWords(2)
	if z[0] != 0xABEE9704 || z[1] != 0x7AC31373 {
		t.Fatalf("keystream %08x %08x, want abee9704 7ac31373 (ETSI test set)", z[0], z[1])
	}
}

func TestXorVariantDiffersButSharesLinearCore(t *testing.T) {
	std := New(Fault{})
	std.Init(paperKey, paperIV)
	xv := NewXorVariant(Fault{})
	xv.Init(paperKey, paperIV)
	zs, zx := std.KeystreamWords(8), xv.KeystreamWords(8)
	same := true
	for i := range zs {
		if zs[i] != zx[i] {
			same = false
		}
	}
	if same {
		t.Fatal("SNOW 3G⊕ produced the standard keystream")
	}
	// Under the FSM-disconnect fault both variants reduce to the same
	// linear LFSR, so the attack's key extraction works identically.
	fs := NewXorVariant(Fault{FSMStuckInit: true, FSMStuckKeystream: true})
	fs.Init(paperKey, paperIV)
	k, iv, _, err := RecoverFromKeystream(fs.KeystreamWords(16))
	if err != nil || k != paperKey || iv != paperIV {
		t.Fatalf("fault attack fails on SNOW 3G⊕: %v", err)
	}
}

func TestUpdateMatrixMatchesStepForward(t *testing.T) {
	l := UpdateMatrix()
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		var s State
		for i := range s {
			s[i] = rng.Uint32()
		}
		viaMatrix := VecToState(l.MulVec(StateToVec(s)))
		if viaMatrix != StepForward(s) {
			t.Fatalf("trial %d: matrix and StepForward disagree", trial)
		}
	}
}

func TestUpdateMatrixInvertible(t *testing.T) {
	// The LFSR feedback polynomial is primitive over GF(2^32), so the
	// 512×512 update matrix must have full rank.
	l := UpdateMatrix()
	inv, err := l.Inverse()
	if err != nil {
		t.Fatalf("update matrix singular: %v", err)
	}
	rng := rand.New(rand.NewSource(52))
	var s State
	for i := range s {
		s[i] = rng.Uint32()
	}
	back := VecToState(inv.MulVec(StateToVec(StepForward(s))))
	if back != s {
		t.Fatal("L⁻¹·L ≠ identity on a random state")
	}
	if back2 := VecToState(inv.MulVec(StateToVec(s))); back2 != StepBack(s) {
		t.Fatal("matrix inverse disagrees with the byte-table StepBack")
	}
}

func TestMatrixRecoveryMatchesTableRewind(t *testing.T) {
	c := New(Fault{FSMStuckInit: true, FSMStuckKeystream: true})
	c.Init(paperKey, paperIV)
	z := c.KeystreamWords(16)
	k1, iv1, s1, err1 := RecoverFromKeystream(z)
	k2, iv2, s2, err2 := RecoverFromKeystreamMatrix(z)
	if err1 != nil || err2 != nil {
		t.Fatalf("recovery errors: %v / %v", err1, err2)
	}
	if k1 != k2 || iv1 != iv2 || s1 != s2 {
		t.Fatal("matrix-based recovery disagrees with the table rewind")
	}
	if k2 != paperKey {
		t.Fatalf("matrix recovery got %08x", k2)
	}
}

func BenchmarkMatrixRecovery(b *testing.B) {
	c := New(Fault{FSMStuckInit: true, FSMStuckKeystream: true})
	c.Init(paperKey, paperIV)
	z := c.KeystreamWords(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := RecoverFromKeystreamMatrix(z); err != nil {
			b.Fatal(err)
		}
	}
}

// InitState loads an explicit LFSR state instead of γ(K, IV) and runs
// initialization.
func (c *Cipher) InitState(s State) {
	c.lfsr = s
	c.r1, c.r2, c.r3 = 0, 0, 0
	for i := 0; i < 32; i++ {
		w := c.clockFSM()
		if c.fault.FSMStuckInit {
			w = 0
		}
		c.clockLFSR(w)
	}
	c.clockFSM()
	c.clockLFSR(0)
	c.inKeyGen = true
	c.ready = true
}
