package cc

import (
	"errors"
	"strings"
	"testing"
)

// FuzzCompile compiles arbitrary source. Compile must never panic, and
// every error it reports must be a *Error positioned inside the source.
// The seed corpus (testdata/fuzz/FuzzCompile) holds the benchmark programs
// and short MiniC programs, valid and not.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		_, err := Compile(src)
		if err == nil {
			return
		}
		var ce *Error
		if !errors.As(err, &ce) {
			t.Fatalf("error without a source position: %v", err)
		}
		if lines := 1 + strings.Count(src, "\n"); ce.Line < 1 || ce.Line > lines || ce.Col < 0 {
			t.Fatalf("error at %d:%d, outside the source's %d lines: %v", ce.Line, ce.Col, lines, err)
		}
	})
}
