package cc

import "fmt"

// MaxParams is the number of register-passed parameters (AAPCS r0-r3).
const MaxParams = 4

// semaInfo is the result of semantic analysis.
type semaInfo struct {
	file    *File
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl
}

func analyse(f *File) (*semaInfo, error) {
	s := &semaInfo{
		file:    f,
		globals: map[string]*GlobalDecl{},
		funcs:   map[string]*FuncDecl{},
	}
	for _, g := range f.Globals {
		if s.globals[g.Name] != nil {
			return nil, fmt.Errorf("%d: global %q redefined", g.Line, g.Name)
		}
		s.globals[g.Name] = g
	}
	for _, fn := range f.Funcs {
		if s.funcs[fn.Name] != nil {
			return nil, fmt.Errorf("%d: function %q redefined", fn.Line, fn.Name)
		}
		if s.globals[fn.Name] != nil {
			return nil, fmt.Errorf("%d: %q is both a global and a function", fn.Line, fn.Name)
		}
		if len(fn.Params) > MaxParams {
			return nil, fmt.Errorf("%d: function %q has %d parameters; at most %d are supported",
				fn.Line, fn.Name, len(fn.Params), MaxParams)
		}
		s.funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		fs := &funcSema{sema: s, fn: fn}
		fs.pushScope()
		for _, p := range fn.Params {
			if err := fs.declare(p.Name, fn.Line); err != nil {
				return nil, err
			}
		}
		if err := fs.checkStmt(fn.Body, 0); err != nil {
			return nil, err
		}
		fs.popScope()
	}
	// Derive bounds for counted for-loops after name checks.
	for _, fn := range f.Funcs {
		deriveBounds(fn.Body)
	}
	return s, nil
}

type funcSema struct {
	sema   *semaInfo
	fn     *FuncDecl
	scopes []map[string]bool
}

func (fs *funcSema) pushScope() { fs.scopes = append(fs.scopes, map[string]bool{}) }
func (fs *funcSema) popScope()  { fs.scopes = fs.scopes[:len(fs.scopes)-1] }

func (fs *funcSema) declare(name string, line int) error {
	top := fs.scopes[len(fs.scopes)-1]
	if top[name] {
		return fmt.Errorf("%d: %q redeclared in the same scope", line, name)
	}
	top[name] = true
	return nil
}

func (fs *funcSema) isLocal(name string) bool {
	for i := len(fs.scopes) - 1; i >= 0; i-- {
		if fs.scopes[i][name] {
			return true
		}
	}
	return false
}

func (fs *funcSema) checkStmt(st Stmt, loopDepth int) error {
	switch n := st.(type) {
	case *Block:
		fs.pushScope()
		defer fs.popScope()
		for _, s := range n.Stmts {
			if err := fs.checkStmt(s, loopDepth); err != nil {
				return err
			}
		}
	case *VarDecl:
		if n.Init != nil {
			if err := fs.checkExpr(n.Init); err != nil {
				return err
			}
		}
		return fs.declare(n.Name, n.Line)
	case *DeclGroup:
		for _, d := range n.Decls {
			if err := fs.checkStmt(d, loopDepth); err != nil {
				return err
			}
		}
	case *If:
		if err := fs.checkExpr(n.Cond); err != nil {
			return err
		}
		if err := fs.checkStmt(n.Then, loopDepth); err != nil {
			return err
		}
		if n.Else != nil {
			return fs.checkStmt(n.Else, loopDepth)
		}
	case *While:
		if err := fs.checkExpr(n.Cond); err != nil {
			return err
		}
		return fs.checkStmt(n.Body, loopDepth+1)
	case *For:
		fs.pushScope() // the init declaration scopes over the loop
		defer fs.popScope()
		if n.Init != nil {
			if err := fs.checkStmt(n.Init, loopDepth); err != nil {
				return err
			}
		}
		if n.Cond != nil {
			if err := fs.checkExpr(n.Cond); err != nil {
				return err
			}
		}
		if n.Post != nil {
			if err := fs.checkExpr(n.Post); err != nil {
				return err
			}
		}
		return fs.checkStmt(n.Body, loopDepth+1)
	case *Return:
		if n.Value != nil {
			if fs.fn.RetVoid {
				return fmt.Errorf("%d: void function %q returns a value", n.Line, fs.fn.Name)
			}
			return fs.checkExpr(n.Value)
		}
	case *ExprStmt:
		return fs.checkExpr(n.X)
	case *Break:
		if loopDepth == 0 {
			return fmt.Errorf("%d: break outside loop", n.Line)
		}
	case *Continue:
		if loopDepth == 0 {
			return fmt.Errorf("%d: continue outside loop", n.Line)
		}
	case *Empty:
	default:
		return fmt.Errorf("sema: unknown statement %T", st)
	}
	return nil
}

func (fs *funcSema) checkExpr(e Expr) error {
	switch n := e.(type) {
	case *IntLit:
	case *VarRef:
		if fs.isLocal(n.Name) {
			return nil
		}
		g := fs.sema.globals[n.Name]
		if g == nil {
			return fmt.Errorf("%d: undefined variable %q", n.Line, n.Name)
		}
		if g.Type.ArrayLen > 0 {
			return fmt.Errorf("%d: array %q used without index (pointers are not supported)", n.Line, n.Name)
		}
	case *Index:
		if fs.isLocal(n.Name) {
			return fmt.Errorf("%d: %q is scalar; cannot index", n.Line, n.Name)
		}
		g := fs.sema.globals[n.Name]
		if g == nil {
			return fmt.Errorf("%d: undefined array %q", n.Line, n.Name)
		}
		if g.Type.ArrayLen == 0 {
			return fmt.Errorf("%d: %q is not an array", n.Line, n.Name)
		}
		return fs.checkExpr(n.Idx)
	case *Call:
		callee := fs.sema.funcs[n.Name]
		if callee == nil {
			return fmt.Errorf("%d: call to undefined function %q", n.Line, n.Name)
		}
		if len(n.Args) != len(callee.Params) {
			return fmt.Errorf("%d: %q called with %d arguments, wants %d",
				n.Line, n.Name, len(n.Args), len(callee.Params))
		}
		for _, a := range n.Args {
			if err := fs.checkExpr(a); err != nil {
				return err
			}
		}
	case *Unary:
		return fs.checkExpr(n.X)
	case *Binary:
		if err := fs.checkExpr(n.L); err != nil {
			return err
		}
		return fs.checkExpr(n.R)
	case *Assign:
		if vr, ok := n.Target.(*VarRef); ok && !fs.isLocal(vr.Name) {
			g := fs.sema.globals[vr.Name]
			if g != nil && g.Const {
				return fmt.Errorf("%d: assignment to const global %q", n.Line, vr.Name)
			}
		}
		if ix, ok := n.Target.(*Index); ok {
			g := fs.sema.globals[ix.Name]
			if g != nil && g.Const {
				return fmt.Errorf("%d: assignment to const array %q", n.Line, ix.Name)
			}
			// Compound assignment evaluates the index twice (t op= v
			// desugars to t = t op v).
			if n.Op != "=" && exprHasSideEffects(ix.Idx) {
				return fmt.Errorf("%d: compound assignment to %q with a side-effecting index", n.Line, ix.Name)
			}
		}
		if err := fs.checkExpr(n.Target); err != nil {
			return err
		}
		return fs.checkExpr(n.Value)
	case *CondExpr:
		if err := fs.checkExpr(n.Cond); err != nil {
			return err
		}
		if err := fs.checkExpr(n.Then); err != nil {
			return err
		}
		return fs.checkExpr(n.Else)
	default:
		return fmt.Errorf("sema: unknown expression %T", e)
	}
	return nil
}

// deriveBounds walks the statement tree deriving iteration bounds for
// counted for-loops of the form
//
//	for (i = c0; i <rel> c1; i += c2) { body not assigning i }
//
// exactly the loops aiT "detects automatically" in the paper's workflow.
// Explicit __loopbound annotations are never overridden.
func deriveBounds(st Stmt) {
	switch n := st.(type) {
	case *Block:
		for _, s := range n.Stmts {
			deriveBounds(s)
		}
	case *If:
		deriveBounds(n.Then)
		if n.Else != nil {
			deriveBounds(n.Else)
		}
	case *While:
		deriveBounds(n.Body)
	case *For:
		deriveBounds(n.Body)
		if n.Bound == 0 {
			if b, ok := countedLoopBound(n); ok {
				n.Bound = b
			}
		}
	}
}

// countedLoopBound computes the exact trip count of a counted for-loop.
func countedLoopBound(f *For) (int64, bool) {
	// Induction variable and start value.
	var ivar string
	var c0 int64
	switch init := f.Init.(type) {
	case *VarDecl:
		lit, ok := init.Init.(*IntLit)
		if !ok {
			return 0, false
		}
		ivar, c0 = init.Name, lit.Val
	case *ExprStmt:
		as, ok := init.X.(*Assign)
		if !ok || as.Op != "=" {
			return 0, false
		}
		vr, ok := as.Target.(*VarRef)
		if !ok {
			return 0, false
		}
		lit, ok := as.Value.(*IntLit)
		if !ok {
			return 0, false
		}
		ivar, c0 = vr.Name, lit.Val
	default:
		return 0, false
	}
	// Condition: ivar <rel> c1.
	cond, ok := f.Cond.(*Binary)
	if !ok {
		return 0, false
	}
	vr, ok := cond.L.(*VarRef)
	if !ok || vr.Name != ivar {
		return 0, false
	}
	lim, ok := cond.R.(*IntLit)
	if !ok {
		return 0, false
	}
	c1 := lim.Val
	// Post: ivar += c2 / ivar -= c2 / ivar = ivar + c2.
	var c2 int64
	post, ok := f.Post.(*Assign)
	if !ok {
		return 0, false
	}
	pvr, ok := post.Target.(*VarRef)
	if !ok || pvr.Name != ivar {
		return 0, false
	}
	switch post.Op {
	case "+=":
		lit, ok := post.Value.(*IntLit)
		if !ok {
			return 0, false
		}
		c2 = lit.Val
	case "-=":
		lit, ok := post.Value.(*IntLit)
		if !ok {
			return 0, false
		}
		c2 = -lit.Val
	case "=":
		b, ok := post.Value.(*Binary)
		if !ok {
			return 0, false
		}
		bl, okL := b.L.(*VarRef)
		lit, okR := b.R.(*IntLit)
		if !okL || !okR || bl.Name != ivar {
			return 0, false
		}
		switch b.Op {
		case "+":
			c2 = lit.Val
		case "-":
			c2 = -lit.Val
		default:
			return 0, false
		}
	default:
		return 0, false
	}
	if c2 == 0 {
		return 0, false
	}
	// The body must not assign the induction variable.
	if assignsVar(f.Body, ivar) {
		return 0, false
	}
	ceilDiv := func(a, b int64) int64 {
		if a <= 0 {
			return 0
		}
		return (a + b - 1) / b
	}
	var n int64
	switch cond.Op {
	case "<":
		if c2 < 0 {
			return 0, false
		}
		n = ceilDiv(c1-c0, c2)
	case "<=":
		if c2 < 0 {
			return 0, false
		}
		n = ceilDiv(c1-c0+1, c2)
	case ">":
		if c2 > 0 {
			return 0, false
		}
		n = ceilDiv(c0-c1, -c2)
	case ">=":
		if c2 > 0 {
			return 0, false
		}
		n = ceilDiv(c0-c1+1, -c2)
	case "!=":
		d := c1 - c0
		if d%c2 != 0 || d/c2 < 0 {
			return 0, false
		}
		n = d / c2
	default:
		return 0, false
	}
	if n < 1 {
		n = 1 // sound upper bound even for loops that never iterate
	}
	return n, true
}

// assignsVar reports whether any statement in the tree assigns name.
func assignsVar(st Stmt, name string) bool {
	switch n := st.(type) {
	case *Block:
		for _, s := range n.Stmts {
			if assignsVar(s, name) {
				return true
			}
		}
	case *VarDecl:
		// A shadowing redeclaration makes inner assignments harmless, but
		// treat it conservatively as an assignment.
		if n.Name == name {
			return true
		}
		if n.Init != nil {
			return exprAssignsVar(n.Init, name)
		}
	case *DeclGroup:
		for _, d := range n.Decls {
			if assignsVar(d, name) {
				return true
			}
		}
	case *If:
		if exprAssignsVar(n.Cond, name) || assignsVar(n.Then, name) {
			return true
		}
		if n.Else != nil {
			return assignsVar(n.Else, name)
		}
	case *While:
		return exprAssignsVar(n.Cond, name) || assignsVar(n.Body, name)
	case *For:
		if n.Init != nil && assignsVar(n.Init, name) {
			return true
		}
		if n.Cond != nil && exprAssignsVar(n.Cond, name) {
			return true
		}
		if n.Post != nil && exprAssignsVar(n.Post, name) {
			return true
		}
		return assignsVar(n.Body, name)
	case *Return:
		if n.Value != nil {
			return exprAssignsVar(n.Value, name)
		}
	case *ExprStmt:
		return exprAssignsVar(n.X, name)
	}
	return false
}

func exprAssignsVar(e Expr, name string) bool {
	switch n := e.(type) {
	case *Assign:
		if vr, ok := n.Target.(*VarRef); ok && vr.Name == name {
			return true
		}
		return exprAssignsVar(n.Target, name) || exprAssignsVar(n.Value, name)
	case *Unary:
		return exprAssignsVar(n.X, name)
	case *Binary:
		return exprAssignsVar(n.L, name) || exprAssignsVar(n.R, name)
	case *Index:
		return exprAssignsVar(n.Idx, name)
	case *Call:
		for _, a := range n.Args {
			if exprAssignsVar(a, name) {
				return true
			}
		}
	case *CondExpr:
		return exprAssignsVar(n.Cond, name) || exprAssignsVar(n.Then, name) || exprAssignsVar(n.Else, name)
	}
	return false
}

// exprHasSideEffects reports whether evaluating e assigns or calls.
func exprHasSideEffects(e Expr) bool {
	switch n := e.(type) {
	case *Assign, *Call:
		return true
	case *Unary:
		return exprHasSideEffects(n.X)
	case *Binary:
		return exprHasSideEffects(n.L) || exprHasSideEffects(n.R)
	case *Index:
		return exprHasSideEffects(n.Idx)
	case *CondExpr:
		return exprHasSideEffects(n.Cond) || exprHasSideEffects(n.Then) || exprHasSideEffects(n.Else)
	}
	return false
}
