package boolfn

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse evaluates a Boolean expression over variables a1..a6 into a truth
// table. The grammar, in decreasing binding strength:
//
//	atom   := 'a' digit | '0' | '1' | '!' atom | '~' atom | '(' expr ')'
//	term   := atom { ('&' | '*' | juxtaposition) atom }
//	xorexp := term { '^' term }
//	expr   := xorexp { ('|' | '+') xorexp }
//
// Juxtaposition (as in the paper's "a4a5") means AND, and '+' means OR as
// in the paper's MUX expressions. A trailing apostrophe (a3') or an
// overline-substitute '!' denotes complement.
func Parse(s string) (TT, error) {
	p := &parser{src: s}
	tt, err := p.parseExpr()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("boolfn: trailing input %q at offset %d", p.src[p.pos:], p.pos)
	}
	return tt, nil
}

// MustParse is Parse for statically known expressions; it panics on error.
func MustParse(s string) TT {
	tt, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return tt
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *parser) parseExpr() (TT, error) {
	left, err := p.parseXor()
	if err != nil {
		return 0, err
	}
	for {
		switch p.peek() {
		case '|', '+':
			p.pos++
			right, err := p.parseXor()
			if err != nil {
				return 0, err
			}
			left |= right
		default:
			return left, nil
		}
	}
}

func (p *parser) parseXor() (TT, error) {
	left, err := p.parseTerm()
	if err != nil {
		return 0, err
	}
	for p.peek() == '^' {
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return 0, err
		}
		left ^= right
	}
	return left, nil
}

// startsAtom reports whether c can begin an atom, used to detect the
// juxtaposition form of AND.
func startsAtom(c byte) bool {
	return c == 'a' || c == '0' || c == '1' || c == '!' || c == '~' || c == '('
}

func (p *parser) parseTerm() (TT, error) {
	left, err := p.parseAtom()
	if err != nil {
		return 0, err
	}
	for {
		c := p.peek()
		if c == '&' || c == '*' {
			p.pos++
			right, err := p.parseAtom()
			if err != nil {
				return 0, err
			}
			left &= right
			continue
		}
		if startsAtom(c) {
			right, err := p.parseAtom()
			if err != nil {
				return 0, err
			}
			left &= right
			continue
		}
		return left, nil
	}
}

func (p *parser) parseAtom() (TT, error) {
	switch c := p.peek(); c {
	case '!', '~':
		p.pos++
		inner, err := p.parseAtom()
		if err != nil {
			return 0, err
		}
		return ^inner, nil
	case '(':
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return 0, err
		}
		if p.peek() != ')' {
			return 0, fmt.Errorf("boolfn: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return p.postfix(inner), nil
	case '0':
		p.pos++
		return p.postfix(Const0), nil
	case '1':
		p.pos++
		return p.postfix(Const1), nil
	case 'a':
		p.pos++
		if p.pos >= len(p.src) {
			return 0, fmt.Errorf("boolfn: dangling 'a' at end of input")
		}
		n, err := strconv.Atoi(string(p.src[p.pos]))
		if err != nil || n < 1 || n > MaxVars {
			return 0, fmt.Errorf("boolfn: bad variable a%c at offset %d", p.src[p.pos], p.pos)
		}
		p.pos++
		return p.postfix(A(n)), nil
	case 0:
		return 0, fmt.Errorf("boolfn: unexpected end of input")
	default:
		return 0, fmt.Errorf("boolfn: unexpected %q at offset %d", c, p.pos)
	}
}

// postfix applies any trailing complement apostrophes.
func (p *parser) postfix(tt TT) TT {
	for p.pos < len(p.src) && p.src[p.pos] == '\'' {
		tt = ^tt
		p.pos++
	}
	return tt
}

// ParseInit parses the Xilinx INIT attribute notation "64'hFFF7F7FF00080800"
// (as printed by TT.String) or a bare 16-digit hex string into a truth
// table.
func ParseInit(s string) (TT, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "64'h")
	s = strings.TrimPrefix(s, "0x")
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("boolfn: bad INIT literal %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("boolfn: bad INIT literal %q: %v", s, err)
	}
	return TT(v), nil
}

// ParseAuto dispatches on the expression shape: strings carrying an
// INIT prefix ("64'h..." or "0x...") parse as truth-table literals,
// everything else as paper-notation Boolean expressions. This is the
// one place user-facing tools (facade, CLI, service jobs) decide which
// grammar a function string is in.
func ParseAuto(s string) (TT, error) {
	t := strings.TrimSpace(s)
	if strings.HasPrefix(t, "64'h") || strings.HasPrefix(t, "0x") {
		return ParseInit(t)
	}
	return Parse(t)
}
