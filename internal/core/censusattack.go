package core

import (
	"errors"
	"fmt"

	"snowbma/internal/boolfn"
)

// RunCensusGuided executes the complete attack WITHOUT the Table II
// candidate catalogue: every target class is discovered from the
// extracted-LUT census by its XOR structure (Section VI-B's guessing
// step replaced by measurement), and all fault tables are derived
// generically from the class functions:
//
//   - z-path class: a census class with a size-3 XOR group (v ⊕ s0) and
//     ≥ 32 members; confirmed per instance by the dead-column criterion.
//   - feedback classes: census classes with a size-2 XOR group (the bare
//     v); fault α₁ is the even-parity cofactor (StuckXorZero).
//   - load MUX classes: classes whose function has a MUX-select variable
//     (support-disjoint non-constant cofactors); fault β zeroes one
//     branch, polarity resolved as in the paper.
//
// The paper-faithful Run remains the primary reproduction; this entry
// point shows the methodology generalizes beyond one hand-built
// catalogue (and is what defeats it — the countermeasure floods exactly
// this analysis).
func (a *Attack) RunCensusGuided() (*Report, error) {
	return a.run("attack.run_census", a.censusFlow)
}

func (a *Attack) censusFlow() error {
	classes, err := CensusAllClasses(a.plain, 8)
	if err != nil {
		return err
	}
	// One batch pass resolves FINDLUT for every discovered class at once;
	// the per-class loops below read from the memo.
	fns := make([]boolfn.TT, len(classes))
	for i, c := range classes {
		fns[i] = c.Canon
	}
	a.scan(fns)
	var zClasses, fbClasses []CensusClass
	var muxSpecs []muxSpec
	for _, c := range classes {
		if sel := boolfn.MuxSelectVars(c.Canon); len(sel) > 0 {
			// Load MUXes, generically: fault β zeroes one branch.
			muxSpecs = append(muxSpecs, muxSpec{
				fn:       c.Canon,
				zeroSel1: boolfn.ZeroMuxBranch(c.Canon, sel[0], true),
				zeroSel0: boolfn.ZeroMuxBranch(c.Canon, sel[0], false),
			})
			continue
		}
		switch {
		case trioOf(c) != nil && c.Count >= 32:
			zClasses = append(zClasses, c)
		case pairOf(c) != nil:
			fbClasses = append(fbClasses, c)
		}
	}
	a.log.Infof("census: %d z-class, %d feedback, %d mux candidates",
		len(zClasses), len(fbClasses), len(muxSpecs))

	// 1. z-path: the first class whose members verify to exactly 32.
	var zClass *CensusClass
	for i := range zClasses {
		verr := a.verifyZPathWith(zClasses[i].Canon)
		if verr == nil {
			zClass = &zClasses[i]
			break
		}
		if errors.Is(verr, ErrCancelled) {
			return verr
		}
	}
	if zClass == nil {
		return errors.New("core: census attack found no verifiable z-path class")
	}
	// Generic keep-variable tables: keeping trio[k] means sticking the
	// other two at even parity.
	trio := trioOf(*zClass)
	var keep [3]boolfn.TT
	for k := range keep {
		others := make([]int, 0, 2)
		for idx, v := range trio {
			if idx != k {
				others = append(others, v)
			}
		}
		keep[k] = boolfn.StuckXorZero(zClass.Canon, others)
	}

	// 2. Feedback: the paper's own reasoning — the right classes cover
	// exactly 32 LUTs. Enumerate subsets of pair-group classes whose
	// census populations sum to 32 and validate each subset through the
	// key-independent (Table III) criterion. A subset's first class is
	// reported as LUT2, the rest as LUT3.
	if len(fbClasses) > 12 {
		return fmt.Errorf("core: %d feedback candidate classes; census attack not attempted", len(fbClasses))
	}
	for mask := 1; mask < 1<<uint(len(fbClasses)); mask++ {
		if err := a.checkpoint(); err != nil {
			return err
		}
		var subset []CensusClass
		total := 0
		for i, c := range fbClasses {
			if mask>>uint(i)&1 == 1 {
				subset = append(subset, c)
				total += c.Count
			}
		}
		if total != 32 {
			continue
		}
		a.plan = faultPlan{keep: keep, whole: true}
		for i, c := range subset {
			alpha := boolfn.StuckXorZero(c.Canon, pairOf(c))
			for _, m := range a.scanned[c.Canon] {
				if a.aligned(m) && !a.claimed(m) {
					a.plan.alphas = append(a.plan.alphas, alphaWrite{m: m, repl: alpha, lut3: i > 0})
				}
			}
		}
		if len(a.plan.alphas) != 32 {
			continue
		}
		// 3. Load MUXes from the mux classes, polarity resolved as in the
		// paper.
		beta, berr := a.resolveBeta(a.muxCandidates(muxSpecs))
		if berr != nil {
			if errors.Is(berr, ErrCancelled) {
				return berr
			}
			a.log.Infof("census: feedback subset rejected by the Table III criterion; trying next")
			continue
		}
		// 4. Pin identification and key extraction with the plan's
		// generic tables.
		if err := a.IdentifyVPairs(beta); err != nil {
			return err
		}
		return a.ExtractKey()
	}
	return errors.New("core: no feedback class subset satisfied the key-independent criterion")
}

func trioOf(c CensusClass) []int {
	for _, g := range c.Groups {
		if len(g) == 3 {
			return g
		}
	}
	return nil
}

func pairOf(c CensusClass) []int {
	for _, g := range c.Groups {
		if len(g) == 2 {
			return g
		}
	}
	return nil
}
