// Package cc is a compiler for MiniC — the C subset the paper's benchmarks
// are written in — targeting ARM7 THUMB.
//
// MiniC supports the integer types int, uint, short, ushort, char and uchar;
// one-dimensional global arrays with optional initialisers; functions with
// up to four int parameters; the usual statements (if/else, while, do-while,
// for, break, continue, return) and integer expressions including short-
// circuit logicals, the ternary operator and compound assignment.
//
// Each function and each global becomes one memory object (the paper's
// allocation granularity). The compiler emits the metadata the paper's
// workflow feeds to the WCET analyser: automatically derived loop bounds
// for counted loops, explicit `__loopbound(n)` annotations for
// data-dependent loops, and per-instruction access hints naming the global
// object each load/store touches.
package cc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokPunct   // operators and punctuation
	tokKeyword // reserved words
)

var keywords = map[string]bool{
	"int": true, "uint": true, "short": true, "ushort": true,
	"char": true, "uchar": true, "void": true, "const": true,
	"if": true, "else": true, "while": true, "do": true, "for": true,
	"return": true, "break": true, "continue": true,
	"__loopbound": true, "__loopboundtotal": true,
}

// punct tokens, longest first so maximal munch works.
var puncts = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
	"(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
}

type token struct {
	kind tokKind
	text string
	val  int64 // for tokInt
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokInt:
		return fmt.Sprintf("%d", t.val)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Error is a source-located compilation error. Every error Compile reports
// about its input is one. Col is 0 when only the line is known: the syntax
// tree records lines, so semantic errors carry no column.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	if e.Col == 0 {
		return fmt.Sprintf("%d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(format string, args ...any) error {
	return &Error{l.line, l.col, fmt.Sprintf(format, args...)}
}

func (l *lexer) advance(n int) {
	for i := 0; i < n; i++ {
		if l.src[l.pos] == '\n' {
			l.line++
			l.col = 1
		} else {
			l.col++
		}
		l.pos++
	}
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance(1)
		case strings.HasPrefix(l.src[l.pos:], "//"):
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.advance(1)
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errf("unterminated block comment")
			}
			l.advance(end + 4)
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	t := token{line: l.line, col: l.col}
	if l.pos >= len(l.src) {
		t.kind = tokEOF
		return t, nil
	}
	c := l.src[l.pos]

	// Identifier or keyword.
	if c == '_' || unicode.IsLetter(rune(c)) {
		start := l.pos
		for l.pos < len(l.src) {
			c := l.src[l.pos]
			if c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) {
				l.advance(1)
			} else {
				break
			}
		}
		t.text = l.src[start:l.pos]
		if keywords[t.text] {
			t.kind = tokKeyword
		} else {
			t.kind = tokIdent
		}
		return t, nil
	}

	// Number (decimal or 0x hex).
	if unicode.IsDigit(rune(c)) {
		start := l.pos
		base := 10
		if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
			base = 16
			l.advance(2)
		}
		for l.pos < len(l.src) {
			c := rune(l.src[l.pos])
			if unicode.IsDigit(c) || (base == 16 && unicode.Is(unicode.ASCII_Hex_Digit, c)) {
				l.advance(1)
			} else {
				break
			}
		}
		text := l.src[start:l.pos]
		digits := text
		if base == 16 {
			digits = text[2:]
		}
		if digits == "" {
			return t, l.errf("malformed number %q", text)
		}
		v, err := strconv.ParseUint(digits, base, 64)
		if err != nil || v > 0xFFFFFFFF {
			return t, l.errf("number %q out of 32-bit range", text)
		}
		t.kind, t.text, t.val = tokInt, text, int64(v)
		return t, nil
	}

	// Character literal.
	if c == '\'' {
		start := l.pos
		l.advance(1)
		if l.pos >= len(l.src) {
			return t, l.errf("unterminated character literal")
		}
		var v int64
		if l.src[l.pos] == '\\' {
			l.advance(1)
			if l.pos >= len(l.src) {
				return t, l.errf("unterminated escape")
			}
			switch l.src[l.pos] {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return t, l.errf("unknown escape \\%c", l.src[l.pos])
			}
			l.advance(1)
		} else {
			v = int64(l.src[l.pos])
			l.advance(1)
		}
		if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
			return t, l.errf("unterminated character literal")
		}
		l.advance(1)
		t.kind, t.text, t.val = tokInt, l.src[start:l.pos], v
		return t, nil
	}

	// Punctuation.
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.advance(len(p))
			t.kind, t.text = tokPunct, p
			return t, nil
		}
	}
	return t, l.errf("unexpected character %q", c)
}

// lexAll tokenises the whole input.
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
