package boolfn

// Candidate is one row of the paper's Table II: a guessed 6-LUT function
// that may cover the target node v, together with the output path it
// belongs to.
type Candidate struct {
	Name string // f1..f21, as in Table II
	Path string // "zt" or "s15"
	Expr string // paper notation (parser syntax)
	TT   TT
}

// Table II of the paper lists the candidate Boolean functions for LUTs
// covering the target XOR v for c = 2 and 3 control variables. The
// catalogue is used both to drive FINDLUT during the attack and to label
// the LUTs the verification step confirms (LUT₁ = f2, LUT₂ = f8,
// LUT₃ = f19).
var candidateSpecs = []struct{ name, path, expr string }{
	{"f1", "zt", "(a1^a2^a3)a4a5a6"},
	{"f2", "zt", "(a1^a2^a3)a4a5!a6"},
	{"f3", "zt", "(a1^a2^a3)a4!a5!a6"},
	{"f4", "zt", "(a1^a2^a3)!a4!a5!a6"},
	{"f5", "zt", "(a1^a2^a3)!a4!a5"},
	{"f6", "zt", "(a1^a2^a3)!a4a5"},
	{"f7", "zt", "(a1^a2^a3)a4a5"},
	{"f8", "s15", "(a1^a2)!a3a4a5 ^ a6"},
	{"f9", "s15", "(a1^a2)!a3!a4a5 ^ a6"},
	{"f10", "s15", "(a1^a2)!a3!a4!a5 ^ a6"},
	{"f11", "s15", "(a1^a2)a3a4a5 ^ a6"},
	{"f12", "s15", "(a1^a2)a4a5 ^ a3a6"},
	{"f13", "s15", "(a1^a2)a4a5 ^ !a3a6"},
	{"f14", "s15", "(a1^a2)a4!a5 ^ a3a6"},
	{"f15", "s15", "(a1^a2)a4!a5 ^ !a3a6"},
	{"f16", "s15", "(a1^a2)!a4!a5 ^ a3a6"},
	{"f17", "s15", "(a1^a2)!a4!a5 ^ !a3a6"},
	{"f18", "s15", "(a1^a2)a4 ^ a3a6"},
	{"f19", "s15", "(a1^a2)!a4 ^ a3a6"},
	{"f20", "s15", "(a1^a2)a4 ^ !a3a6"},
	{"f21", "s15", "(a1^a2)!a4 ^ !a3a6"},
}

// Candidates returns the Table II catalogue in row order.
func Candidates() []Candidate {
	out := make([]Candidate, len(candidateSpecs))
	for i, s := range candidateSpecs {
		out[i] = Candidate{Name: s.name, Path: s.path, Expr: s.expr, TT: MustParse(s.expr)}
	}
	return out
}

// Fault-injected replacements from Section VI-D, equation (1) and the
// key-independence loop. The α fault removes the (a1 ⊕ a2) contribution of
// the FSM output word from the covered function.
var (
	// F2 is the confirmed LUT₁ function on the z_t path.
	F2 = MustParse("(a1^a2^a3)a4a5!a6")
	// F2Alpha keeps only s0 (= a3): used while probing which variable
	// pair of f2 is the FSM XOR v (fault α₂).
	F2Alpha = MustParse("a3a4a5!a6")
	// F8 is the confirmed LUT₂ function on the feedback path (24 bits).
	F8 = MustParse("(a1^a2)!a3a4a5 ^ a6")
	// F8Alpha is f8 with v stuck at 0 (fault α₁): only the linear term.
	F8Alpha = MustParse("a6")
	// F19 is the confirmed LUT₃ function on the feedback path (8 bits).
	F19 = MustParse("(a1^a2)!a4 ^ a3a6")
	// F19Alpha is f19 with v stuck at 0 (fault α₁).
	F19Alpha = MustParse("a3a6")
	// FMux2 is the dual-output 2-to-1 MUX LUT loading γ(K, IV) into an
	// LFSR stage (Section VI-D.2).
	FMux2 = MustParse("a6(a1a2 + !a1a3) + !a6(a1a4 + !a1a5)")
	// FMux2Alpha loads constant 0 instead of γ(K, IV) (fault β), assuming
	// the initial state is loaded when the control input a1 = 1.
	FMux2Alpha = MustParse("a6!a1a3 + !a6!a1a5")
)

// VPairs are the three possible input pairs of the FSM XOR v inside f2;
// the key-independent technique distinguishes among them with two
// keystream computations instead of 3^32 trials (Section VI-D).
var VPairs = [3][2]int{{0, 1}, {0, 2}, {1, 2}}

// F2AlphaKeep returns f2 with the XOR reduced to the single variable
// keep (0-based among a1..a3): the modification applied when testing
// whether the other two variables form the pair (a_i, a_j) of v.
func F2AlphaKeep(keep int) TT {
	gate := And(And(A(4), A(5)), Not(A(6)))
	return And(Var(keep), gate)
}
