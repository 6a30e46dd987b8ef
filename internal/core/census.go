package core

import (
	"sort"

	"snowbma/internal/bitstream"
	"snowbma/internal/boolfn"
)

// Census-guided candidate discovery: instead of guessing a candidate
// catalogue from the block diagram (Section VI-B), a modern attacker
// with full LUT extraction ([14], prjxray) can shortlist target classes
// directly from the bitstream: group every extracted LUT by
// P-equivalence class and keep the classes whose function sees some
// input pair only through its XOR — the signature of covering the
// 2-input XOR node v. On the unprotected design this recovers exactly
// the f2/f8/f19 populations without any guessing; on the protected
// design it drowns in the 192 indistinguishable XOR2 LUTs, which is the
// countermeasure's point.

// CensusClass is one shortlisted P-equivalence class.
type CensusClass struct {
	// Canon is the class representative.
	Canon boolfn.TT
	// Count is the number of extracted LUTs in the class.
	Count int
	// Groups are the XOR-transparent variable groups of the canon.
	Groups [][]int
	// Expr is the minimized sum-of-products of the canon.
	Expr string
}

// CensusCandidates extracts every LUT from a plaintext bitstream image,
// groups them by P-class and returns the classes with XOR structure and
// at least minCount members, largest first.
func CensusCandidates(img []byte, minCount int) ([]CensusClass, error) {
	return censusAll(img, minCount, true)
}

// CensusAllClasses returns every P-class with at least minCount members,
// including classes without XOR structure (the census-guided attack needs
// the plain MUX classes too; Groups is empty for them).
func CensusAllClasses(img []byte, minCount int) ([]CensusClass, error) {
	return censusAll(img, minCount, false)
}

func censusAll(img []byte, minCount int, xorOnly bool) ([]CensusClass, error) {
	luts, err := bitstream.ExtractLUTs(img)
	if err != nil {
		return nil, err
	}
	var out []CensusClass
	for canon, n := range bitstream.Histogram(luts) {
		if n < minCount {
			continue
		}
		groups := boolfn.XorGroups(canon)
		if xorOnly && len(groups) == 0 {
			continue
		}
		out = append(out, CensusClass{
			Canon:  canon,
			Count:  n,
			Groups: groups,
			Expr:   boolfn.Minimize(canon),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Canon < out[j].Canon
	})
	return out, nil
}
