package cc

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/obj"
)

// Code generation model: expressions evaluate into r0, spilling partial
// results to the stack (push/pop), so arbitrary nesting works without a
// register allocator. r7 is the frame pointer; locals and parameters live
// in word slots at [r7, #4*slot]. r1-r3 are per-operation scratch and never
// live across a subexpression. r4-r6 are never touched (the runtime
// division helpers preserve r4). This produces THUMB code of realistic
// density for the paper's purpose: timing behaviour across memory
// hierarchies, not code quality.

type loopCtx struct {
	brk, cont asm.Label
}

type codegen struct {
	sema   *semaInfo
	fn     *FuncDecl
	b      *asm.Builder
	scopes []map[string]int
	nslots int
	frame  int32
	epi    asm.Label
	loops  []loopCtx
}

func genFunc(s *semaInfo, fn *FuncDecl) (*obj.Object, error) {
	g := &codegen{sema: s, fn: fn, b: asm.NewBuilder(fn.Name)}
	// Frame size: every declaration gets its own word slot.
	n := len(fn.Params) + countDecls(fn.Body)
	g.frame = int32(4 * n)
	g.epi = g.b.Label()

	// Prologue.
	g.b.Op(arm.Instr{Op: arm.OpPush, Regs: 1<<7 | 1<<arm.LR})
	g.adjustSP(-g.frame)
	g.b.Op(arm.Instr{Op: arm.OpAddSPRel, Rd: 7, Imm: 0})
	g.pushScope()
	for i, p := range fn.Params {
		slot := g.newSlot(p.Name)
		g.storeLocalFrom(arm.Reg(i), slot)
	}
	g.stmt(fn.Body)
	g.popScope()

	// Epilogue.
	g.b.Bind(g.epi)
	g.adjustSP(g.frame)
	g.b.Op(arm.Instr{Op: arm.OpPop, Regs: 1<<7 | 1<<arm.PC})

	o, err := g.b.Assemble()
	if err != nil {
		return nil, fmt.Errorf("cc: %s: %w", fn.Name, err)
	}
	return o, nil
}

func countDecls(st Stmt) int {
	n := 0
	switch s := st.(type) {
	case *Block:
		for _, c := range s.Stmts {
			n += countDecls(c)
		}
	case *VarDecl:
		n = 1
	case *DeclGroup:
		n = len(s.Decls)
	case *If:
		n = countDecls(s.Then)
		if s.Else != nil {
			n += countDecls(s.Else)
		}
	case *While:
		n = countDecls(s.Body)
	case *For:
		if s.Init != nil {
			n += countDecls(s.Init)
		}
		n += countDecls(s.Body)
	}
	return n
}

func (g *codegen) pushScope() { g.scopes = append(g.scopes, map[string]int{}) }
func (g *codegen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *codegen) newSlot(name string) int {
	slot := g.nslots
	g.nslots++
	g.scopes[len(g.scopes)-1][name] = slot
	return slot
}

// lookupLocal returns the slot of a local/parameter, or -1.
func (g *codegen) lookupLocal(name string) int {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if s, ok := g.scopes[i][name]; ok {
			return s
		}
	}
	return -1
}

// adjustSP emits SP += delta, splitting across the ±508 immediate range.
func (g *codegen) adjustSP(delta int32) {
	for delta != 0 {
		step := delta
		if step > 508 {
			step = 508
		}
		if step < -508 {
			step = -508
		}
		g.b.Op(arm.Instr{Op: arm.OpAddSPImm, Imm: step})
		delta -= step
	}
}

func (g *codegen) loadLocal(rd arm.Reg, slot int) {
	off := int32(4 * slot)
	if off <= 124 {
		g.b.Op(arm.Instr{Op: arm.OpLdrImm, Rd: rd, Rs: 7, Imm: off})
		return
	}
	g.b.LoadConst(2, off)
	g.b.Op(arm.Instr{Op: arm.OpLdrReg, Rd: rd, Rs: 7, Rn: 2})
}

// storeLocalFrom stores register src into a slot; may clobber r2 when src
// is not r2.
func (g *codegen) storeLocalFrom(src arm.Reg, slot int) {
	off := int32(4 * slot)
	if off <= 124 {
		g.b.Op(arm.Instr{Op: arm.OpStrImm, Rd: src, Rs: 7, Imm: off})
		return
	}
	scratch := arm.Reg(2)
	if src == 2 {
		scratch = 3
	}
	g.b.LoadConst(scratch, off)
	g.b.Op(arm.Instr{Op: arm.OpStrReg, Rd: src, Rs: 7, Rn: scratch})
}

func (g *codegen) push0() { g.b.Op(arm.Instr{Op: arm.OpPush, Regs: 1 << 0}) }
func (g *codegen) pop(r arm.Reg) {
	g.b.Op(arm.Instr{Op: arm.OpPop, Regs: 1 << r})
}

// Statements.

func (g *codegen) stmt(st Stmt) {
	switch n := st.(type) {
	case *Block:
		g.pushScope()
		for _, s := range n.Stmts {
			g.stmt(s)
		}
		g.popScope()
	case *VarDecl:
		slot := g.newSlot(n.Name)
		if n.Init != nil {
			g.expr(n.Init)
			g.storeLocalFrom(0, slot)
		}
	case *DeclGroup:
		for _, d := range n.Decls {
			g.stmt(d)
		}
	case *If:
		if n.Else == nil {
			end := g.b.Label()
			g.condBranch(n.Cond, end, false)
			g.stmt(n.Then)
			g.b.Bind(end)
		} else {
			els, end := g.b.Label(), g.b.Label()
			g.condBranch(n.Cond, els, false)
			g.stmt(n.Then)
			g.b.Jump(end)
			g.b.Bind(els)
			g.stmt(n.Else)
			g.b.Bind(end)
		}
	case *While:
		if n.PostTest {
			g.doWhile(n)
		} else {
			g.while(n)
		}
	case *For:
		g.forLoop(n)
	case *Return:
		if n.Value != nil {
			g.expr(n.Value)
		}
		g.b.Jump(g.epi)
	case *ExprStmt:
		g.expr(n.X)
	case *Break:
		g.b.Jump(g.loops[len(g.loops)-1].brk)
	case *Continue:
		g.b.Jump(g.loops[len(g.loops)-1].cont)
	case *Empty:
	default:
		panic(fmt.Sprintf("cc: codegen: unknown statement %T", st))
	}
}

// while compiles a pre-test loop with a single annotated back edge:
//
//	head: if (!cond) goto exit
//	      body            (continue → cont, break → exit)
//	cont: goto head       ← back edge carrying the loop bound
//	exit:
func (g *codegen) while(n *While) {
	head, cont, exit := g.b.Label(), g.b.Label(), g.b.Label()
	g.b.Bind(head)
	g.condBranch(n.Cond, exit, false)
	g.loops = append(g.loops, loopCtx{brk: exit, cont: cont})
	g.stmt(n.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.b.Bind(cont)
	if n.Bound > 0 {
		g.b.SetNextBranchBound(n.Bound)
	}
	if n.BoundTotal > 0 {
		g.b.SetNextBranchTotal(n.BoundTotal)
	}
	g.b.Jump(head)
	g.b.Bind(exit)
}

// doWhile compiles a post-test loop. The body runs Bound times at most, so
// the single back edge runs Bound-1 times.
func (g *codegen) doWhile(n *While) {
	head, cont, exit := g.b.Label(), g.b.Label(), g.b.Label()
	g.b.Bind(head)
	g.loops = append(g.loops, loopCtx{brk: exit, cont: cont})
	g.stmt(n.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.b.Bind(cont)
	g.condBranch(n.Cond, exit, false)
	if n.Bound > 0 {
		b := n.Bound - 1
		if b < 1 {
			b = 1
		}
		g.b.SetNextBranchBound(b)
	}
	g.b.Jump(head)
	g.b.Bind(exit)
}

func (g *codegen) forLoop(n *For) {
	g.pushScope()
	if n.Init != nil {
		g.stmt(n.Init)
	}
	head, cont, exit := g.b.Label(), g.b.Label(), g.b.Label()
	g.b.Bind(head)
	if n.Cond != nil {
		g.condBranch(n.Cond, exit, false)
	}
	g.loops = append(g.loops, loopCtx{brk: exit, cont: cont})
	g.stmt(n.Body)
	g.loops = g.loops[:len(g.loops)-1]
	g.b.Bind(cont)
	if n.Post != nil {
		g.expr(n.Post)
	}
	if n.Bound > 0 {
		g.b.SetNextBranchBound(n.Bound)
	}
	if n.BoundTotal > 0 {
		g.b.SetNextBranchTotal(n.BoundTotal)
	}
	g.b.Jump(head)
	g.b.Bind(exit)
	g.popScope()
}

// Conditions.

var relConds = map[string]arm.Cond{
	"==": arm.CondEQ, "!=": arm.CondNE,
	"<": arm.CondLT, "<=": arm.CondLE, ">": arm.CondGT, ">=": arm.CondGE,
}

// condBranch branches to target when e's truth equals whenTrue, otherwise
// falls through. Logical operators short-circuit without materialising
// booleans.
func (g *codegen) condBranch(e Expr, target asm.Label, whenTrue bool) {
	switch n := e.(type) {
	case *IntLit:
		if (n.Val != 0) == whenTrue {
			g.b.Jump(target)
		}
	case *Unary:
		if n.Op == "!" {
			g.condBranch(n.X, target, !whenTrue)
			return
		}
		g.valueCond(e, target, whenTrue)
	case *Binary:
		switch n.Op {
		case "&&":
			if whenTrue {
				skip := g.b.Label()
				g.condBranch(n.L, skip, false)
				g.condBranch(n.R, target, true)
				g.b.Bind(skip)
			} else {
				g.condBranch(n.L, target, false)
				g.condBranch(n.R, target, false)
			}
		case "||":
			if whenTrue {
				g.condBranch(n.L, target, true)
				g.condBranch(n.R, target, true)
			} else {
				skip := g.b.Label()
				g.condBranch(n.L, skip, true)
				g.condBranch(n.R, target, false)
				g.b.Bind(skip)
			}
		default:
			if cond, ok := relConds[n.Op]; ok {
				g.expr(n.L)
				g.push0()
				g.expr(n.R)
				g.pop(1)
				g.b.Op(arm.Instr{Op: arm.OpCmpReg, Rd: 1, Rs: 0})
				if !whenTrue {
					cond = cond.Invert()
				}
				g.b.Branch(cond, target)
				return
			}
			g.valueCond(e, target, whenTrue)
		}
	default:
		g.valueCond(e, target, whenTrue)
	}
}

// valueCond evaluates e and branches on its truth value.
func (g *codegen) valueCond(e Expr, target asm.Label, whenTrue bool) {
	g.expr(e)
	g.b.Op(arm.Instr{Op: arm.OpCmpImm, Rd: 0, Imm: 0})
	cond := arm.CondNE
	if !whenTrue {
		cond = arm.CondEQ
	}
	g.b.Branch(cond, target)
}

// Expressions: result in r0.

func (g *codegen) expr(e Expr) {
	switch n := e.(type) {
	case *IntLit:
		g.b.LoadConst(0, int32(n.Val))
	case *VarRef:
		if slot := g.lookupLocal(n.Name); slot >= 0 {
			g.loadLocal(0, slot)
			return
		}
		g.loadGlobalScalar(g.sema.globals[n.Name])
	case *Index:
		gd := g.sema.globals[n.Name]
		g.expr(n.Idx)
		g.scaleIndex(gd.Type.Base.Width())
		g.b.LoadAddr(1, n.Name, 0)
		g.loadElem(gd)
	case *Call:
		g.call(n)
	case *Unary:
		switch n.Op {
		case "-":
			g.expr(n.X)
			g.b.Op(arm.Instr{Op: arm.OpNeg, Rd: 0, Rs: 0})
		case "~":
			g.expr(n.X)
			g.b.Op(arm.Instr{Op: arm.OpMvn, Rd: 0, Rs: 0})
		case "!":
			g.materializeBool(n, false)
		default:
			panic("cc: unknown unary " + n.Op)
		}
	case *Binary:
		g.binary(n)
	case *Assign:
		g.assign(n)
	case *CondExpr:
		els, end := g.b.Label(), g.b.Label()
		g.condBranch(n.Cond, els, false)
		g.expr(n.Then)
		g.b.Jump(end)
		g.b.Bind(els)
		g.expr(n.Else)
		g.b.Bind(end)
	default:
		panic(fmt.Sprintf("cc: codegen: unknown expression %T", e))
	}
}

func (g *codegen) scaleIndex(width uint8) {
	switch width {
	case 4:
		g.b.Op(arm.Instr{Op: arm.OpLslImm, Rd: 0, Rs: 0, Imm: 2})
	case 2:
		g.b.Op(arm.Instr{Op: arm.OpLslImm, Rd: 0, Rs: 0, Imm: 1})
	}
}

// loadElem loads the element at address r1+r0 with the global's width and
// signedness into r0.
func (g *codegen) loadElem(gd *GlobalDecl) {
	g.b.Hint(gd.Name)
	switch {
	case gd.Type.Base.Width() == 4:
		g.b.Op(arm.Instr{Op: arm.OpLdrReg, Rd: 0, Rs: 1, Rn: 0})
	case gd.Type.Base.Width() == 2 && gd.Type.Base.Signed():
		g.b.Op(arm.Instr{Op: arm.OpLdshReg, Rd: 0, Rs: 1, Rn: 0})
	case gd.Type.Base.Width() == 2:
		g.b.Op(arm.Instr{Op: arm.OpLdrhReg, Rd: 0, Rs: 1, Rn: 0})
	case gd.Type.Base.Signed():
		g.b.Op(arm.Instr{Op: arm.OpLdsbReg, Rd: 0, Rs: 1, Rn: 0})
	default:
		g.b.Op(arm.Instr{Op: arm.OpLdrbReg, Rd: 0, Rs: 1, Rn: 0})
	}
}

func (g *codegen) loadGlobalScalar(gd *GlobalDecl) {
	g.b.LoadAddr(1, gd.Name, 0)
	g.b.LoadConst(0, 0)
	g.loadElem(gd)
}

func (g *codegen) call(n *Call) {
	// Evaluate arguments right to left, pushing each; then pop them into
	// r0..r(n-1) in one go (lowest register gets the shallowest slot, which
	// is the leftmost argument).
	for i := len(n.Args) - 1; i >= 0; i-- {
		g.expr(n.Args[i])
		g.push0()
	}
	if len(n.Args) > 0 {
		g.b.Op(arm.Instr{Op: arm.OpPop, Regs: uint16(1<<len(n.Args)) - 1})
	}
	g.b.Call(n.Name)
}

func (g *codegen) binary(n *Binary) {
	if cond, ok := relConds[n.Op]; ok {
		_ = cond
		g.materializeBool(n, true)
		return
	}
	switch n.Op {
	case "&&", "||":
		g.materializeBool(n, true)
		return
	case "/", "%":
		// __divsi3/__modsi3 take numerator in r0, denominator in r1.
		g.expr(n.L)
		g.push0()
		g.expr(n.R)
		g.b.Move(1, 0)
		g.pop(0)
		if n.Op == "/" {
			g.b.Call("__divsi3")
		} else {
			g.b.Call("__modsi3")
		}
		return
	}
	g.expr(n.L)
	g.push0()
	g.expr(n.R)
	g.pop(1) // L in r1, R in r0
	switch n.Op {
	case "+":
		g.b.Op(arm.Instr{Op: arm.OpAddReg, Rd: 0, Rs: 1, Rn: 0})
	case "-":
		g.b.Op(arm.Instr{Op: arm.OpSubReg, Rd: 0, Rs: 1, Rn: 0})
	case "*":
		g.b.Op(arm.Instr{Op: arm.OpMul, Rd: 0, Rs: 1})
	case "&":
		g.b.Op(arm.Instr{Op: arm.OpAnd, Rd: 0, Rs: 1})
	case "|":
		g.b.Op(arm.Instr{Op: arm.OpOrr, Rd: 0, Rs: 1})
	case "^":
		g.b.Op(arm.Instr{Op: arm.OpEor, Rd: 0, Rs: 1})
	case "<<":
		g.b.Move(2, 0) // amount
		g.b.Move(0, 1) // value
		g.b.Op(arm.Instr{Op: arm.OpLslReg, Rd: 0, Rs: 2})
	case ">>":
		// Arithmetic shift: MiniC's >> on int is signed, as on the paper's
		// compiler for THUMB.
		g.b.Move(2, 0)
		g.b.Move(0, 1)
		g.b.Op(arm.Instr{Op: arm.OpAsrReg, Rd: 0, Rs: 2})
	default:
		panic("cc: unknown binary " + n.Op)
	}
}

// materializeBool computes a 0/1 truth value into r0. For "!" pass
// whenTrue=false to invert.
func (g *codegen) materializeBool(e Expr, whenTrue bool) {
	t, end := g.b.Label(), g.b.Label()
	inner := e
	if u, ok := e.(*Unary); ok && u.Op == "!" {
		inner = u.X
	}
	g.condBranch(inner, t, whenTrue)
	g.b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 0, Imm: 0})
	g.b.Jump(end)
	g.b.Bind(t)
	g.b.Op(arm.Instr{Op: arm.OpMovImm, Rd: 0, Imm: 1})
	g.b.Bind(end)
}

func (g *codegen) assign(n *Assign) {
	// Desugar compound assignment: t op= v  →  t = t op v. Array-element
	// targets re-evaluate the index; sema rejects compound assignments
	// whose index expression has side effects.
	value := n.Value
	if n.Op != "=" {
		op := n.Op[:len(n.Op)-1]
		value = &Binary{Op: op, L: n.Target, R: n.Value, Line: n.Line}
	}
	switch t := n.Target.(type) {
	case *VarRef:
		if slot := g.lookupLocal(t.Name); slot >= 0 {
			g.expr(value)
			g.storeLocalFrom(0, slot)
			return
		}
		gd := g.sema.globals[t.Name]
		g.expr(value)
		g.b.LoadAddr(1, t.Name, 0)
		g.b.Hint(t.Name)
		switch gd.Type.Base.Width() {
		case 4:
			g.b.Op(arm.Instr{Op: arm.OpStrImm, Rd: 0, Rs: 1, Imm: 0})
		case 2:
			g.b.Op(arm.Instr{Op: arm.OpStrhImm, Rd: 0, Rs: 1, Imm: 0})
		default:
			g.b.Op(arm.Instr{Op: arm.OpStrbImm, Rd: 0, Rs: 1, Imm: 0})
		}
	case *Index:
		gd := g.sema.globals[t.Name]
		g.expr(value)
		g.push0()
		g.expr(t.Idx)
		g.scaleIndex(gd.Type.Base.Width())
		g.b.LoadAddr(1, t.Name, 0)
		g.pop(2) // value
		g.b.Hint(t.Name)
		switch gd.Type.Base.Width() {
		case 4:
			g.b.Op(arm.Instr{Op: arm.OpStrReg, Rd: 2, Rs: 1, Rn: 0})
		case 2:
			g.b.Op(arm.Instr{Op: arm.OpStrhReg, Rd: 2, Rs: 1, Rn: 0})
		default:
			g.b.Op(arm.Instr{Op: arm.OpStrbReg, Rd: 2, Rs: 1, Rn: 0})
		}
		g.b.Move(0, 2) // assignment value is the expression's value
	default:
		panic("cc: unassignable target")
	}
}
