// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	maximise  c·x   subject to  A·x {<=,=,>=} b,  x >= 0.
//
// It is the optimisation substrate for the scratchpad knapsack allocation
// (the paper solves it with a commercial ILP solver) and for the IPET path
// analysis in the WCET tool. Problems in this repository are small (tens to
// hundreds of variables). The tableau is one flat row-major slice, pivots
// follow Bland's anti-cycling rule, and a Workspace lets a run of solves
// reuse one buffer.
//
// A pivot is sparse: it scales the pivot row once, collects the columns
// where the scaled row is non-zero, and updates the other rows and the
// objective row only there. Knapsack tableaux are mostly bound rows
// x_i <= 1 with two non-zeros each, so most pivots touch a few entries
// instead of whole rows. The sparse update is exact: for a finite x,
// x − f·0 = x, so every entry matches the full-row update bit for bit and
// only the sign of a zero can differ. No comparison, ratio test or
// extracted solution reads that sign, so every pivot choice, pivot count
// and solution is the dense method's.
package lp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/obs"
)

// Process-wide simplex metrics, split by mode: "cold" counts full two-phase
// solves (Solve, and the phase-1 work done by Prepare); "warm" counts
// phase-2-only re-solves from a Prepared tableau (SolveObjective). The
// pivot counters measure actual simplex effort, so cold-vs-warm ratios
// quantify what constraint-skeleton reuse saves.
var (
	mSolvesCold = obs.Default.Counter("wcetlab_lp_solves_total",
		"Simplex solves by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "cold")
	mSolvesWarm = obs.Default.Counter("wcetlab_lp_solves_total",
		"Simplex solves by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "warm")
	mPivotsCold = obs.Default.Counter("wcetlab_lp_pivots_total",
		"Simplex pivots by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "cold")
	mPivotsWarm = obs.Default.Counter("wcetlab_lp_pivots_total",
		"Simplex pivots by mode (cold = two-phase, warm = phase 2 from a prepared tableau).",
		"mode", "warm")
)

// Rel is a constraint relation.
type Rel int8

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // ==
)

func (r Rel) String() string { return [...]string{"<=", ">=", "=="}[r] }

// Constraint is one linear constraint: Coef·x Rel RHS. Coef may be shorter
// than the variable count; missing entries are zero.
type Constraint struct {
	Coef []float64
	Rel  Rel
	RHS  float64
}

// Problem is a linear program. All variables are implicitly non-negative.
type Problem struct {
	// NumVars is the number of decision variables.
	NumVars int
	// Objective holds the maximisation coefficients (padded with zeros).
	Objective []float64
	// Cons are the constraints.
	Cons []Constraint
}

// AddConstraint appends a constraint.
func (p *Problem) AddConstraint(coef []float64, rel Rel, rhs float64) {
	p.Cons = append(p.Cons, Constraint{Coef: coef, Rel: rel, RHS: rhs})
}

// Status reports the outcome of a solve.
type Status int8

// Solve outcomes. IterationLimit means a simplex phase gave up after
// maxIterations pivots: it says nothing about feasibility or boundedness,
// so callers must treat it as a solver failure.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterationLimit
)

func (s Status) String() string {
	return [...]string{"optimal", "infeasible", "unbounded", "iteration limit"}[s]
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X holds the optimal variable values (length NumVars).
	X []float64
	// Obj is the optimal objective value.
	Obj float64
}

const eps = 1e-9

// maxIterations caps the pivots of one simplex phase. With Bland's rule it
// should never bind; if it does, the solve reports IterationLimit.
const maxIterations = 50000

// tableau is the simplex tableau. Rows 0..m-1 are constraints, stored
// row-major in one flat slice, with the RHS kept apart; the objective row
// is stored separately.
type tableau struct {
	m, n   int       // constraint rows, total columns (excluding RHS)
	nv     int       // decision variables (columns 0..nv-1)
	a      []float64 // m rows of n entries
	rhs    []float64
	obj    []float64 // reduced-cost row (for maximisation)
	objC   float64   // objective constant
	basis  []int     // basic variable of each row
	pivots int       // pivot operations performed on this tableau
	// nzCol and nzVal are pivot's scratch space: the columns and values of
	// the non-zero entries of the scaled pivot row.
	nzCol []int
	nzVal []float64
}

// row returns constraint row i.
func (t *tableau) row(i int) []float64 { return t.a[i*t.n : (i+1)*t.n] }

// reset shapes t as an all-zero m×n tableau with a zero pivot count,
// reusing its storage where it is large enough.
func (t *tableau) reset(m, n, nv int) {
	t.m, t.n, t.nv = m, n, nv
	t.a = zeroed(t.a, m*n)
	t.rhs = zeroed(t.rhs, m)
	t.obj = zeroed(t.obj, n)
	t.basis = zeroed(t.basis, m)
	t.objC, t.pivots = 0, 0
}

// zeroed returns s resized to n zero entries. It grows s as append does,
// so a run of ever larger tableaux (a deepening branch & bound search)
// reallocates only a logarithmic number of times.
func zeroed[T int | float64](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// copyFrom makes t a copy of src, reusing t's storage, so a Prepared base
// can be re-solved many times. The pivot counter restarts at zero: each
// re-solve reports only its own phase-2 effort.
func (t *tableau) copyFrom(src *tableau) {
	t.m, t.n, t.nv = src.m, src.n, src.nv
	t.a = append(t.a[:0], src.a...)
	t.rhs = append(t.rhs[:0], src.rhs...)
	t.obj = append(t.obj[:0], src.obj...)
	t.basis = append(t.basis[:0], src.basis...)
	t.objC, t.pivots = src.objC, 0
}

// pivot makes col basic in row. It scales the pivot row once, collects the
// columns where the scaled row is non-zero, and updates the other rows and
// the objective row in those columns only. A skipped column would have
// computed x − f·0 = x, so every entry equals the full-row update's up to
// the sign of a zero, which nothing reads.
func (t *tableau) pivot(row, col int) {
	t.pivots++
	pr := t.row(row)
	inv := 1 / pr[col]
	cols, vals := t.nzCol[:0], t.nzVal[:0]
	for j, v := range pr {
		if v == 0 {
			continue
		}
		if j == col {
			v = 1
		} else {
			v *= inv
		}
		pr[j] = v
		if v != 0 {
			cols = append(cols, j)
			vals = append(vals, v)
		}
	}
	t.nzCol, t.nzVal = cols, vals
	t.rhs[row] *= inv
	b := t.rhs[row]
	for i, at := 0, col; i < t.m; i, at = i+1, at+t.n {
		f := t.a[at]
		if f == 0 || i == row {
			continue
		}
		r := t.row(i)
		for k, j := range cols {
			r[j] -= f * vals[k]
		}
		t.rhs[i] -= f * b
		r[col] = 0
	}
	if f := t.obj[col]; f != 0 {
		for k, j := range cols {
			t.obj[j] -= f * vals[k]
		}
		t.objC -= f * b
		t.obj[col] = 0
	}
	t.basis[row] = col
}

// iterate runs primal simplex until optimality or unboundedness, using
// Bland's rule (smallest index) to prevent cycling. It gives up with
// IterationLimit rather than make a pivot beyond the limit-th.
func (t *tableau) iterate(limit int) Status {
	for iter := 0; ; iter++ {
		col := -1
		for j, v := range t.obj {
			if v > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		row := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if v := t.a[i*t.n+col]; v > eps {
				ratio := t.rhs[i] / v
				if ratio < best-eps || (ratio < best+eps && (row < 0 || t.basis[i] < t.basis[row])) {
					best = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return Unbounded
		}
		if iter == limit {
			return IterationLimit
		}
		t.pivot(row, col)
	}
}

// Workspace holds the tableau storage of one solve at a time, so a caller
// making a run of solves (the nodes of one branch & bound search) reuses
// one buffer instead of allocating a tableau per solve. The zero value is
// ready to use; a Workspace must not be shared between goroutines.
type Workspace struct {
	t tableau
}

// Solve solves the problem with the two-phase simplex method.
func Solve(p *Problem) Solution { return new(Workspace).Solve(p) }

// Solve is the package-level Solve in w's storage.
func (w *Workspace) Solve(p *Problem) Solution { return w.solve(p, maxIterations) }

func (w *Workspace) solve(p *Problem, limit int) Solution {
	mSolvesCold.Inc()
	t := &w.t
	if st := t.load(p, limit); st != Optimal {
		return Solution{Status: st}
	}
	sol := t.solveObjective(p.Objective, limit)
	mPivotsCold.Add(uint64(t.pivots))
	return sol
}

// load builds the simplex tableau for p's constraints in t's storage and
// runs phase 1 (feasibility). The tableau depends only on p.NumVars and
// p.Cons — never on p.Objective — so it can be re-solved under any
// objective with solveObjective. A status other than Optimal means the
// constraints are infeasible or phase 1 hit the iteration limit; the
// tableau is then unusable.
func (t *tableau) load(p *Problem, limit int) Status {
	m := len(p.Cons)
	nv := p.NumVars

	// Count slack and artificial columns.
	nSlack := 0
	nArt := 0
	for _, c := range p.Cons {
		rel, rhs := c.Rel, c.RHS
		if rhs < 0 { // normalised below: flips the relation
			rel = flip(rel)
		}
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := nv + nSlack + nArt
	t.reset(m, n, nv)
	// Artificial columns are the last nArt, from art0 on.
	art0 := nv + nSlack
	slackCur, artCur := nv, art0
	for i, c := range p.Cons {
		r := t.row(i)
		sign := 1.0
		rel := c.Rel
		if c.RHS < 0 {
			sign = -1
			rel = flip(rel)
		}
		for j, v := range c.Coef[:min(len(c.Coef), nv)] {
			r[j] = sign * v
		}
		t.rhs[i] = sign * c.RHS
		switch rel {
		case LE:
			r[slackCur] = 1
			t.basis[i] = slackCur
			slackCur++
		case GE:
			r[slackCur] = -1
			slackCur++
			r[artCur] = 1
			t.basis[i] = artCur
			artCur++
		case EQ:
			r[artCur] = 1
			t.basis[i] = artCur
			artCur++
		}
	}
	if nArt == 0 {
		return Optimal
	}

	// Phase 1: maximise -(sum of artificials).
	for j := art0; j < n; j++ {
		t.obj[j] = -1
	}
	// Price out the artificial basis (a zero entry would add nothing).
	for i := 0; i < t.m; i++ {
		if t.basis[i] < art0 {
			continue
		}
		for j, v := range t.row(i) {
			if v != 0 {
				t.obj[j] += v
			}
		}
		t.objC += t.rhs[i]
		t.obj[t.basis[i]] = 0
	}
	switch t.iterate(limit) {
	case IterationLimit:
		return IterationLimit
	case Unbounded: // phase 1 is bounded above by 0; kept as a guard
		return Infeasible
	}
	// objC tracks the negated objective, so a positive residual means
	// some artificial variable is still non-zero: infeasible.
	if t.objC > 1e-6 {
		return Infeasible
	}
	// Drive remaining artificials out of the basis where possible.
	for i := 0; i < t.m; i++ {
		if t.basis[i] < art0 {
			continue
		}
		pivoted := false
		for j, v := range t.row(i)[:art0] {
			if math.Abs(v) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted && math.Abs(t.rhs[i]) > 1e-6 {
			return Infeasible
		}
	}
	// Forbid artificials from re-entering: zero their columns.
	for i := 0; i < t.m; i++ {
		clear(t.row(i)[art0:])
	}
	return Optimal
}

// solveObjective runs phase 2 of the simplex method on a phase-1-feasible
// tableau under the given (maximisation) objective and extracts the
// solution. It mutates the tableau, so warm-start callers must copy first.
func (t *tableau) solveObjective(objective []float64, limit int) Solution {
	nv := t.nv
	// Phase 2: the real objective.
	clear(t.obj)
	t.objC = 0
	copy(t.obj[:nv], objective)
	// Price out basic variables (a zero entry would subtract nothing).
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		f := t.obj[b]
		if f == 0 {
			continue
		}
		for j, v := range t.row(i) {
			if v != 0 {
				t.obj[j] -= f * v
			}
		}
		t.objC -= f * t.rhs[i]
		t.obj[b] = 0
	}
	if st := t.iterate(limit); st != Optimal {
		return Solution{Status: st}
	}

	x := make([]float64, nv)
	for i := 0; i < t.m; i++ {
		if t.basis[i] < nv {
			x[t.basis[i]] = t.rhs[i]
		}
	}
	obj := 0.0
	for j := 0; j < nv && j < len(objective); j++ {
		obj += objective[j] * x[j]
	}
	return Solution{Status: Optimal, X: x, Obj: obj}
}

// Prepared is a phase-1-solved constraint skeleton: the feasibility work of
// Solve done once, re-usable under any number of objectives. It is how the
// IPET analysis warm-starts re-priced solves — the flow constraints of a
// function never change across placements, only the cost row does.
//
// SolveObjective copies the base tableau and runs phase 2 from it, which by
// construction performs the exact pivot sequence a cold Solve would after
// its own phase 1 — so results are bit-identical to Solve, just cheaper.
type Prepared struct {
	base   *tableau
	status Status
}

// Prepare runs phase 1 on p's constraints (the objective is ignored) and
// captures the resulting tableau. The phase-1 pivots count as cold work.
func Prepare(p *Problem) *Prepared {
	t := new(tableau)
	if st := t.load(p, maxIterations); st != Optimal {
		return &Prepared{status: st}
	}
	mPivotsCold.Add(uint64(t.pivots))
	return &Prepared{base: t, status: Optimal}
}

// NumVars reports the decision-variable count of the prepared problem, or 0
// if the constraints were infeasible.
func (pr *Prepared) NumVars() int {
	if pr.base == nil {
		return 0
	}
	return pr.base.nv
}

// SolveObjective maximises the given objective over the prepared
// constraints. The base tableau is never mutated after Prepare, so
// concurrent calls on one Prepared are safe.
func (pr *Prepared) SolveObjective(objective []float64) Solution {
	return new(Workspace).SolveObjective(pr, objective)
}

// SolveObjective is pr.SolveObjective in w's storage.
func (w *Workspace) SolveObjective(pr *Prepared, objective []float64) Solution {
	mSolvesWarm.Inc()
	if pr.status != Optimal {
		return Solution{Status: pr.status}
	}
	t := &w.t
	t.copyFrom(pr.base)
	sol := t.solveObjective(objective, maxIterations)
	mPivotsWarm.Add(uint64(t.pivots))
	return sol
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	}
	return EQ
}

// String renders the problem for debugging.
func (p *Problem) String() string {
	s := fmt.Sprintf("max %v subject to:\n", p.Objective)
	for _, c := range p.Cons {
		s += fmt.Sprintf("  %v %s %g\n", c.Coef, c.Rel, c.RHS)
	}
	return s
}
