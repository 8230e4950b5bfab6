package cc

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/obj"
)

// Compile compiles a MiniC translation unit into a complete program: one
// code object per function, one data object per global, the runtime library
// (software division) and the startup stub. The program's entry is
// "__start" and its analysis root is "main", which must be defined and take
// no parameters.
func Compile(src string) (*obj.Program, error) {
	file, err := parse(src)
	if err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	sema, err := analyse(file)
	if err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}
	mainFn := sema.funcs["main"]
	if mainFn == nil {
		line, col := endOf(src)
		return nil, fmt.Errorf("cc: %w", &Error{Line: line, Col: col, Msg: "no main function"})
	}
	if len(mainFn.Params) != 0 {
		return nil, fmt.Errorf("cc: %w", &Error{Line: mainFn.Line, Msg: "main must take no parameters"})
	}

	crt, err := asm.Crt0("main")
	if err != nil {
		return nil, err
	}
	rt, err := asm.RuntimeObjects()
	if err != nil {
		return nil, err
	}
	if err := checkDecls(file, append([]*obj.Object{crt}, rt...)); err != nil {
		return nil, fmt.Errorf("cc: %w", err)
	}

	objs := []*obj.Object{crt}
	for _, fn := range file.Funcs {
		o, err := genFunc(sema, fn)
		if err != nil {
			return nil, fmt.Errorf("cc: %w", err)
		}
		objs = append(objs, o)
	}
	for _, g := range file.Globals {
		objs = append(objs, genGlobal(g))
	}
	objs = append(objs, rt...)

	prog := &obj.Program{Objects: objs, Entry: "__start", Main: "main"}
	if err := prog.Validate(); err != nil {
		// checkDecls rules out duplicate objects, and sema every undefined
		// call or global, so a valid parse validates.
		return nil, fmt.Errorf("cc: %w", err)
	}
	return prog, nil
}

// maxGlobalData bounds the bytes of all globals together, each rounded up
// to a word: the linker's main-memory data region, which ends where the
// stack region begins.
const maxGlobalData = 1 << 20

// checkDecls rejects a global or function whose name the startup code or
// the runtime library already defines, and globals that together exceed
// maxGlobalData.
func checkDecls(file *File, system []*obj.Object) error {
	taken := map[string]bool{}
	for _, o := range system {
		taken[o.Name] = true
	}
	for _, fn := range file.Funcs {
		if taken[fn.Name] {
			return &Error{Line: fn.Line, Msg: fmt.Sprintf("%q is reserved for the runtime", fn.Name)}
		}
	}
	total := 0
	for _, g := range file.Globals {
		if taken[g.Name] {
			return &Error{Line: g.Line, Msg: fmt.Sprintf("%q is reserved for the runtime", g.Name)}
		}
		total += (int(g.Type.Base.Width())*max(g.Type.ArrayLen, 1) + 3) &^ 3
		if total > maxGlobalData {
			return &Error{Line: g.Line, Msg: fmt.Sprintf("globals exceed %d bytes of data", maxGlobalData)}
		}
	}
	return nil
}

// endOf returns the line and column just past the last character of src.
func endOf(src string) (line, col int) {
	last := strings.LastIndexByte(src, '\n')
	return 1 + strings.Count(src, "\n"), len(src) - last
}

// genGlobal lowers a global declaration to a data object with little-endian
// initial contents.
func genGlobal(g *GlobalDecl) *obj.Object {
	w := g.Type.Base.Width()
	count := g.Type.ArrayLen
	if count == 0 {
		count = 1
	}
	data := make([]byte, int(w)*count)
	for i, v := range g.Init {
		off := i * int(w)
		for b := 0; b < int(w); b++ {
			data[off+b] = byte(uint64(v) >> (8 * b))
		}
	}
	return &obj.Object{
		Name:      g.Name,
		Kind:      obj.Data,
		Data:      data,
		Align:     4,
		ElemWidth: w,
		ReadOnly:  g.Const,
	}
}
