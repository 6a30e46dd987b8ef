package netlist

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteStructural emits a human-readable structural listing, one net per
// line, resembling a flattened structural HDL. It is deterministic and
// used in golden tests.
func (n *Netlist) WriteStructural(w io.Writer) error {
	for id, nd := range n.Nodes {
		var line string
		switch nd.Op {
		case OpConst0, OpConst1, OpPI:
			line = fmt.Sprintf("n%d = %s %s", id, nd.Op, nd.Name)
		case OpFFQ:
			init := "init0"
			if n.FFs[nd.Aux].Init {
				init = "init1"
			}
			line = fmt.Sprintf("n%d = ffq %s %s", id, nd.Name, init)
		case OpBRAMOut:
			line = fmt.Sprintf("n%d = bram[%d].bit%d %s", id, nd.Aux>>8, nd.Aux&0xff, nd.Name)
		default:
			args := make([]string, len(nd.Fanin))
			for i, f := range nd.Fanin {
				args[i] = fmt.Sprintf("n%d", f)
			}
			line = fmt.Sprintf("n%d = %s(%s)", id, nd.Op, strings.Join(args, ", "))
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	for _, ff := range n.FFs {
		if ff.D == Invalid {
			continue
		}
		if _, err := fmt.Fprintf(w, "ff n%d <= n%d\n", ff.Q, ff.D); err != nil {
			return err
		}
	}
	names := n.OutputNames()
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "output %s = n%d\n", name, n.POs[name]); err != nil {
			return err
		}
	}
	return nil
}
