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
func (a *Attack) RunCensusGuided() (rep *Report, err error) {
	span := a.tel.StartSpan("attack.run_census")
	defer func() {
		a.baseLive = false
		if restoreErr := a.dev.Load(a.dev.ReadFlash()); restoreErr != nil && err == nil {
			err = fmt.Errorf("core: restoring original bitstream: %w", restoreErr)
		}
		span.SetAttr("loads", a.rep.Loads)
		span.SetAttr("verified", a.rep.Verified)
		span.End()
		a.publishStats()
		rep = a.rep.Clone()
	}()

	if err = a.checkpoint(); err != nil {
		return rep, err
	}
	classes, cerr := CensusAllClasses(a.plain, 8)
	if cerr != nil {
		return rep, cerr
	}
	// One batch pass resolves FINDLUT for every discovered class at once;
	// the per-class loops below read from the memo.
	if len(classes) > 0 {
		s := NewScanner(FindOptions{})
		s.SetTelemetry(a.tel)
		for i, c := range classes {
			s.AddFunction(fmt.Sprintf("class%d", i), c.Canon)
		}
		res := s.Scan(a.plain)
		if a.scanned == nil {
			a.scanned = make(map[boolfn.TT][]Match, len(classes))
		}
		for i, c := range classes {
			a.scanned[c.Canon] = res.Matches[fmt.Sprintf("class%d", i)]
		}
		a.rep.Scan.Accumulate(res.Stats)
	}
	var zClasses, fbClasses []CensusClass
	var muxClasses []CensusClass
	muxSel := map[boolfn.TT]int{}
	for _, c := range classes {
		if sel := boolfn.MuxSelectVars(c.Canon); len(sel) > 0 {
			muxClasses = append(muxClasses, c)
			muxSel[c.Canon] = sel[0]
			continue
		}
		var trio, pair []int
		for _, g := range c.Groups {
			switch {
			case len(g) == 3 && trio == nil:
				trio = g
			case len(g) == 2 && pair == nil:
				pair = g
			}
		}
		switch {
		case trio != nil && c.Count >= 32:
			zClasses = append(zClasses, c)
		case pair != nil:
			fbClasses = append(fbClasses, c)
		}
	}
	a.log.Infof("census: %d z-class, %d feedback, %d mux candidates",
		len(zClasses), len(fbClasses), len(muxClasses))

	// 1. z-path: the first class whose members verify to exactly 32.
	var zClass *CensusClass
	for i := range zClasses {
		verr := a.verifyZPathWith(zClasses[i].Canon)
		if verr == nil {
			zClass = &zClasses[i]
			break
		}
		if errors.Is(verr, ErrCancelled) {
			return rep, verr
		}
	}
	if zClass == nil {
		return rep, errors.New("core: census attack found no verifiable z-path class")
	}
	trio := trioOf(*zClass)
	if trio == nil {
		return rep, errors.New("core: z class lost its XOR trio")
	}
	// Generic keep-variable tables: keeping trio[k] means sticking the
	// other two at even parity.
	keepFn := func(keep int) boolfn.TT {
		others := make([]int, 0, 2)
		for idx, v := range trio {
			if idx != keep {
				others = append(others, v)
			}
		}
		return boolfn.StuckXorZero(zClass.Canon, others)
	}

	// 2. Feedback: the paper's own reasoning — the right classes cover
	// exactly 32 LUTs. Enumerate subsets of pair-group classes whose
	// census populations sum to 32 and validate each subset through the
	// key-independent (Table III) criterion.
	type fbMod struct {
		m     Match
		alpha boolfn.TT
	}
	modMatch := func(md fbMod) Match { return md.m }
	collect := func(subset []CensusClass) []fbMod {
		var mods []fbMod
		for _, c := range subset {
			alpha := boolfn.StuckXorZero(c.Canon, pairOf(c))
			for _, m := range a.matchesFor(c.Canon) {
				if !a.aligned(m) || overlapsAny(m, a.rep.LUT1, confirmedMatch) || overlapsAny(m, mods, modMatch) {
					continue
				}
				mods = append(mods, fbMod{m: m, alpha: alpha})
			}
		}
		return mods
	}
	if len(fbClasses) > 12 {
		return rep, fmt.Errorf("core: %d feedback candidate classes; census attack not attempted", len(fbClasses))
	}
	for mask := 1; mask < 1<<uint(len(fbClasses)); mask++ {
		if err = a.checkpoint(); err != nil {
			return rep, err
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
		mods := collect(subset)
		if len(mods) != 32 {
			continue
		}
		applyAlpha := func(b []byte) {
			for _, md := range mods {
				WriteMatch(b, md.m, md.alpha)
			}
		}
		// 3. Load MUXes from the mux classes, generically.
		var matches []Match
		var specs []muxSpec
		for _, c := range muxClasses {
			sel := muxSel[c.Canon]
			spec := muxSpec{
				name:     "census:" + c.Expr,
				fn:       c.Canon,
				zeroSel1: boolfn.ZeroMuxBranch(c.Canon, sel, true),
				zeroSel0: boolfn.ZeroMuxBranch(c.Canon, sel, false),
			}
			for _, m := range a.matchesFor(c.Canon) {
				if !a.aligned(m) || overlapsAny(m, a.rep.LUT1, confirmedMatch) || overlapsAny(m, mods, modMatch) {
					continue
				}
				matches = append(matches, m)
				specs = append(specs, spec)
			}
		}
		a.rep.MuxMatches = len(matches)
		beta, berr := a.resolveBetaWith(matches, specs, applyAlpha)
		if berr != nil {
			if errors.Is(berr, ErrCancelled) {
				return rep, berr
			}
			a.log.Infof("census: feedback subset rejected by the Table III criterion; trying next")
			continue
		}
		a.rep.LUT2 = append(a.rep.LUT2[:0], make([]Match, 0)...)
		a.rep.LUT3 = a.rep.LUT3[:0]
		for i, md := range mods {
			if i < 24 {
				a.rep.LUT2 = append(a.rep.LUT2, md.m)
			} else {
				a.rep.LUT3 = append(a.rep.LUT3, md.m)
			}
		}
		// 4. Pin identification and key extraction with generic tables.
		if err = a.identifyVPairsWith(beta, applyAlpha, keepFn); err != nil {
			return rep, err
		}
		if err = a.extractKeyWith(applyAlpha, keepFn); err != nil {
			return rep, err
		}
		return rep, nil
	}
	return rep, errors.New("core: no feedback class subset satisfied the key-independent criterion")
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
