package report

import (
	"fmt"
	"strings"

	"snowbma/internal/corpus"
)

// Corpus renders the census-at-scale report: the fleet-wide headline
// (designs, exposure, coverage, frame accounting) followed by one row per
// design. Exposed designs are flagged — each is a bitstream an attacker
// could modify per the paper; covered designs carry (or behave as if
// they carry) the Section VII-A countermeasure.
func Corpus(rep *corpus.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "corpus census:        %d designs, target %s\n",
		rep.Designs, rep.Expr)
	fmt.Fprintf(&b, "  exposed:            %d\n", rep.Exposed)
	fmt.Fprintf(&b, "  covered:            %d (%d protected)\n", rep.Covered, rep.Protected)
	fmt.Fprintf(&b, "  candidates:         %d matches, %d dual-XOR hits\n",
		rep.Matches, rep.DualHits)
	fmt.Fprintf(&b, "  bytes:              %d\n", rep.BytesTotal)
	fmt.Fprintf(&b, "  frames:             %d (%d scanned, %d reused by re-adds)\n",
		rep.Frames, rep.FramesScanned, rep.DedupHits)
	b.WriteString("designs:\n")
	for _, dr := range rep.Results {
		verdict := "covered"
		if dr.Exposed {
			verdict = "EXPOSED"
		}
		luts := fmt.Sprintf("%d target LUTs", dr.TargetLUTs)
		if dr.TargetLUTs < 0 {
			luts = "unparsed image"
		}
		fmt.Fprintf(&b, "  %-24.24s %-7s  %s, %d candidates, %d duals",
			dr.ID, verdict, luts, len(dr.Matches), dr.DualHits)
		if dr.Rescans > 0 {
			fmt.Fprintf(&b, ", %d rescans", dr.Rescans)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
