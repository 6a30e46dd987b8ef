package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ReadStructural parses the text format emitted by WriteStructural back
// into a network. The format is line oriented:
//
//	n7 = pi load
//	n9 = xor(n7, n8)
//	n12 = bram[0].bit3 rom[3]
//	output z[0] = n9
//
// BRAM and adder payloads (content, operand lists) are not part of the
// listing, so networks containing them are rejected — the format covers
// the combinational/FF subset the round-trip tests build.
func ReadStructural(r io.Reader) (*Netlist, error) {
	n := New()
	idMap := map[string]NodeID{"n0": 0, "n1": 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var ffFixups []struct {
		q NodeID
		d string
	}
	resolve := func(tok string) (NodeID, error) {
		id, ok := idMap[tok]
		if !ok {
			return Invalid, fmt.Errorf("netlist: line %d references undefined net %q", lineNo, tok)
		}
		return id, nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "ff ") {
			// "ff nQ <= nD": flip-flop data wiring.
			rest := strings.TrimPrefix(line, "ff ")
			parts := strings.SplitN(rest, "<=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("netlist: line %d: malformed ff wiring", lineNo)
			}
			q, err := resolve(strings.TrimSpace(parts[0]))
			if err != nil {
				return nil, err
			}
			ffFixups = append(ffFixups, struct {
				q NodeID
				d string
			}{q, strings.TrimSpace(parts[1])})
			continue
		}
		if strings.HasPrefix(line, "output ") {
			rest := strings.TrimPrefix(line, "output ")
			parts := strings.SplitN(rest, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("netlist: line %d: malformed output", lineNo)
			}
			src, err := resolve(strings.TrimSpace(parts[1]))
			if err != nil {
				return nil, err
			}
			n.Output(strings.TrimSpace(parts[0]), src)
			continue
		}
		parts := strings.SplitN(line, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("netlist: line %d: malformed definition", lineNo)
		}
		name := strings.TrimSpace(parts[0])
		rhs := strings.TrimSpace(parts[1])
		if !strings.HasPrefix(name, "n") {
			return nil, fmt.Errorf("netlist: line %d: bad net name %q", lineNo, name)
		}
		switch {
		case rhs == "const0 const0" || rhs == "const0":
			idMap[name] = 0
		case rhs == "const1 const1" || rhs == "const1":
			idMap[name] = 1
		case strings.HasPrefix(rhs, "pi "):
			idMap[name] = n.Input(strings.TrimSpace(strings.TrimPrefix(rhs, "pi ")))
		case strings.HasPrefix(rhs, "ffq "):
			fields := strings.Fields(strings.TrimPrefix(rhs, "ffq "))
			init := false
			ffName := ""
			for _, f := range fields {
				switch f {
				case "init0":
				case "init1":
					init = true
				default:
					ffName = f
				}
			}
			idMap[name] = n.NewFF(ffName, init)
		case strings.HasPrefix(rhs, "bram["), strings.HasPrefix(rhs, "carry"):
			return nil, fmt.Errorf("netlist: line %d: %q requires payload not present in the listing", lineNo, rhs)
		default:
			op, argStr, ok := splitCall(rhs)
			if !ok {
				return nil, fmt.Errorf("netlist: line %d: unrecognized %q", lineNo, rhs)
			}
			args, err := parseArgs(argStr)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			ids := make([]NodeID, len(args))
			for i, a := range args {
				if ids[i], err = resolve(a); err != nil {
					return nil, err
				}
			}
			id, err := buildGate(n, op, ids, name)
			if err != nil {
				return nil, fmt.Errorf("netlist: line %d: %v", lineNo, err)
			}
			idMap[name] = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fix := range ffFixups {
		d, ok := idMap[fix.d]
		if !ok {
			return nil, fmt.Errorf("netlist: ffd references undefined net %q", fix.d)
		}
		n.ConnectFF(fix.q, d)
	}
	return n, nil
}

func splitCall(rhs string) (op, args string, ok bool) {
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return "", "", false
	}
	return rhs[:open], rhs[open : len(rhs)-0], true
}

// parseArgs parses "(a, b, c)" into tokens.
func parseArgs(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("malformed argument list %q", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, nil
	}
	parts := strings.Split(inner, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts, nil
}

func buildGate(n *Netlist, op string, args []NodeID, name string) (NodeID, error) {
	want := map[string]int{"and": 2, "or": 2, "xor": 2, "not": 1, "buf": 1, "mux": 3}
	if w, ok := want[op]; !ok {
		return Invalid, fmt.Errorf("unknown op %q", op)
	} else if len(args) != w {
		return Invalid, fmt.Errorf("op %q wants %d args, got %d", op, w, len(args))
	}
	switch op {
	case "and":
		return n.And(args[0], args[1]), nil
	case "or":
		return n.Or(args[0], args[1]), nil
	case "xor":
		return n.Xor(args[0], args[1]), nil
	case "not":
		return n.Not(args[0]), nil
	case "buf":
		return n.Buf(args[0], strings.TrimPrefix(name, "n")), nil
	case "mux":
		return n.Mux(args[0], args[1], args[2]), nil
	}
	return Invalid, fmt.Errorf("unreachable op %q", op)
}

// Buf adds a named buffer node, the form ReadStructural gives a "buf"
// line.
func (n *Netlist) Buf(a NodeID, name string) NodeID {
	return n.addNode(Node{Op: OpBuf, Fanin: []NodeID{a}, Name: name})
}
