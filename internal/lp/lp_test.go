package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestBasicMaximisation(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4; x + 3y <= 6 → x=4, y=0, obj 12.
	p := &Problem{NumVars: 2, Objective: []float64{3, 2}}
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 3}, LE, 6)
	s := Solve(p)
	if s.Status != Optimal || !approx(s.Obj, 12) {
		t.Fatalf("solution %+v, want obj 12", s)
	}
}

func TestDegenerateVertex(t *testing.T) {
	// max x + y s.t. x <= 2; y <= 2; x + y <= 4 (redundant at optimum).
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 0}, LE, 2)
	p.AddConstraint([]float64{0, 1}, LE, 2)
	p.AddConstraint([]float64{1, 1}, LE, 4)
	s := Solve(p)
	if s.Status != Optimal || !approx(s.Obj, 4) {
		t.Fatalf("solution %+v, want obj 4", s)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// max 2x + y s.t. x + y = 3; x <= 2 → x=2, y=1, obj 5.
	p := &Problem{NumVars: 2, Objective: []float64{2, 1}}
	p.AddConstraint([]float64{1, 1}, EQ, 3)
	p.AddConstraint([]float64{1, 0}, LE, 2)
	s := Solve(p)
	if s.Status != Optimal || !approx(s.Obj, 5) || !approx(s.X[0], 2) || !approx(s.X[1], 1) {
		t.Fatalf("solution %+v, want x=(2,1) obj 5", s)
	}
}

func TestGEConstraintsAndNegativeRHS(t *testing.T) {
	// max -x s.t. x >= 3 → x=3. Also expressed as -x <= -3.
	p := &Problem{NumVars: 1, Objective: []float64{-1}}
	p.AddConstraint([]float64{1}, GE, 3)
	s := Solve(p)
	if s.Status != Optimal || !approx(s.X[0], 3) {
		t.Fatalf("ge: %+v, want x=3", s)
	}
	p2 := &Problem{NumVars: 1, Objective: []float64{-1}}
	p2.AddConstraint([]float64{-1}, LE, -3)
	s2 := Solve(p2)
	if s2.Status != Optimal || !approx(s2.X[0], 3) {
		t.Fatalf("negative rhs: %+v, want x=3", s2)
	}
}

func TestInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 2)
	if s := Solve(p); s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 0}}
	p.AddConstraint([]float64{0, 1}, LE, 5)
	if s := Solve(p); s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	p := &Problem{NumVars: 2}
	p.AddConstraint([]float64{1, 1}, EQ, 1)
	s := Solve(p)
	if s.Status != Optimal || !approx(s.X[0]+s.X[1], 1) {
		t.Fatalf("feasibility solve: %+v", s)
	}
}

// TestFlowConservationIntegrality: an IPET-shaped program (network flow with
// a loop bound) must have an integral optimum.
func TestFlowConservationIntegrality(t *testing.T) {
	// Blocks: entry(0), head(1), body(2), exit(3).
	// x0 = 1; x0 + xback = x1 (head in-flow); body = xback; bound: body <= 10*x0.
	// maximise 5*x1 + 20*x2.
	p := &Problem{NumVars: 4, Objective: []float64{0, 5, 20, 0}}
	p.AddConstraint([]float64{1, 0, 0, 0}, EQ, 1)   // entry once
	p.AddConstraint([]float64{1, -1, 1, 0}, EQ, 0)  // x0 + x2 = x1
	p.AddConstraint([]float64{0, 1, -1, -1}, EQ, 0) // x1 = x2 + x3
	p.AddConstraint([]float64{-10, 0, 1, 0}, LE, 0) // x2 <= 10 x0
	s := Solve(p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	want := 5*11.0 + 20*10.0
	if !approx(s.Obj, want) {
		t.Fatalf("obj %g, want %g", s.Obj, want)
	}
	for i, v := range s.X {
		if !approx(v, math.Round(v)) {
			t.Fatalf("x%d = %g not integral", i, v)
		}
	}
}

// TestPropertySolutionFeasible: whatever the solver returns as optimal must
// satisfy every constraint.
func TestPropertySolutionFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		nv := 1 + rng.Intn(5)
		p := &Problem{NumVars: nv}
		p.Objective = make([]float64, nv)
		for i := range p.Objective {
			p.Objective[i] = float64(rng.Intn(21) - 10)
		}
		ncons := 1 + rng.Intn(6)
		for c := 0; c < ncons; c++ {
			coef := make([]float64, nv)
			for i := range coef {
				coef[i] = float64(rng.Intn(11) - 3)
			}
			p.AddConstraint(coef, Rel(rng.Intn(3)), float64(rng.Intn(41)-10))
		}
		// Keep it bounded.
		all := make([]float64, nv)
		for i := range all {
			all[i] = 1
		}
		p.AddConstraint(all, LE, 100)
		s := Solve(p)
		if s.Status != Optimal {
			return true // infeasible/unbounded is fine for random input
		}
		for _, c := range p.Cons {
			lhs := 0.0
			for j := 0; j < nv && j < len(c.Coef); j++ {
				lhs += c.Coef[j] * s.X[j]
			}
			switch c.Rel {
			case LE:
				if lhs > c.RHS+1e-6 {
					return false
				}
			case GE:
				if lhs < c.RHS-1e-6 {
					return false
				}
			case EQ:
				if math.Abs(lhs-c.RHS) > 1e-6 {
					return false
				}
			}
		}
		for _, v := range s.X {
			if v < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// denseTableau is the full-row tableau layout and pivot the sparse pivot
// replaced, kept only as the reference TestSparsePivotMatchesDense compares
// with.
type denseTableau struct {
	m, n  int
	a     [][]float64
	rhs   []float64
	obj   []float64
	objC  float64
	basis []int
}

func toDense(t *tableau) *denseTableau {
	d := &denseTableau{
		m: t.m, n: t.n,
		a:     make([][]float64, t.m),
		rhs:   append([]float64(nil), t.rhs...),
		obj:   append([]float64(nil), t.obj...),
		objC:  t.objC,
		basis: append([]int(nil), t.basis...),
	}
	for i := range d.a {
		d.a[i] = append([]float64(nil), t.row(i)...)
	}
	return d
}

func (t *denseTableau) pivot(row, col int) {
	p := t.a[row][col]
	inv := 1 / p
	for j := 0; j < t.n; j++ {
		t.a[row][j] *= inv
	}
	t.rhs[row] *= inv
	t.a[row][col] = 1
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.rhs[i] -= f * t.rhs[row]
		t.a[i][col] = 0
	}
	f := t.obj[col]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			t.obj[j] -= f * t.a[row][j]
		}
		t.objC -= f * t.rhs[row]
		t.obj[col] = 0
	}
	t.basis[row] = col
}

// sameTableau reports the first entry where the sparse and dense tableaux
// differ under ==, so a zero of either sign matches any other zero.
func sameTableau(t *tableau, d *denseTableau) string {
	for i := 0; i < t.m; i++ {
		for j, v := range t.row(i) {
			if v != d.a[i][j] {
				return fmt.Sprintf("a[%d][%d] = %v, dense %v", i, j, v, d.a[i][j])
			}
		}
		if t.rhs[i] != d.rhs[i] {
			return fmt.Sprintf("rhs[%d] = %v, dense %v", i, t.rhs[i], d.rhs[i])
		}
		if t.basis[i] != d.basis[i] {
			return fmt.Sprintf("basis[%d] = %d, dense %d", i, t.basis[i], d.basis[i])
		}
	}
	for j, v := range t.obj {
		if v != d.obj[j] {
			return fmt.Sprintf("obj[%d] = %v, dense %v", j, v, d.obj[j])
		}
	}
	if t.objC != d.objC {
		return fmt.Sprintf("objC = %v, dense %v", t.objC, d.objC)
	}
	return ""
}

// randomKnapsackLP is shaped like the scratchpad knapsacks: a capacity row,
// an ε-constraint GE row over real-valued weights, a bound row x_i <= 1
// per item, branching rows x_i <= 0 and x_i >= 1, and rows with a negative
// right-hand side (which the tableau flips).
func randomKnapsackLP(rng *rand.Rand) *Problem {
	nv := 1 + rng.Intn(30)
	p := &Problem{NumVars: nv}
	p.Objective = make([]float64, nv)
	sizes := make([]float64, nv)
	weights := make([]float64, nv)
	for j := 0; j < nv; j++ {
		p.Objective[j] = rng.Float64() * 1e4
		sizes[j] = float64(4 * (1 + rng.Intn(100)))
		if rng.Intn(4) > 0 {
			weights[j] = rng.Float64() * 3e3
		}
	}
	p.AddConstraint(sizes, LE, float64(4*(1+rng.Intn(200))))
	p.AddConstraint(weights, GE, rng.Float64()*5e3)
	for j := 0; j < nv; j++ {
		u := make([]float64, nv)
		u[j] = 1
		p.AddConstraint(u, LE, 1)
	}
	for k := rng.Intn(4); k > 0; k-- {
		u := make([]float64, rng.Intn(nv)+1) // shorter rows pad with zeros
		u[len(u)-1] = 1
		if rng.Intn(2) == 0 {
			p.AddConstraint(u, LE, 0)
		} else {
			p.AddConstraint(u, GE, 1)
		}
	}
	if rng.Intn(2) == 0 {
		neg := make([]float64, nv)
		for j := range neg {
			neg[j] = -weights[j]
		}
		p.AddConstraint(neg, Rel(rng.Intn(3)), -rng.Float64()*2e3)
	}
	return p
}

// TestSparsePivotMatchesDense applies the sparse pivot and the full-row
// reference to the same knapsack-shaped tableaux, through simplex-chosen
// and random pivots (negative pivot elements included), and requires every
// entry, right-hand side, objective entry and objective constant to be
// equal after each pivot.
func TestSparsePivotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pivots := 0
	for trial := 0; trial < 400; trial++ {
		p := randomKnapsackLP(rng)
		tab := new(tableau)
		tab.load(p, 0) // build and price out phase 1, pivot nothing
		if rng.Intn(3) == 0 {
			copy(tab.obj, p.Objective) // a phase-2-like objective row
		}
		ref := toDense(tab)
		for step := 0; step < 40; step++ {
			row, col := -1, -1
			if step%2 == 0 {
				// The simplex choice: Bland's entering column, ratio test.
				for j, v := range tab.obj {
					if v > eps {
						col = j
						break
					}
				}
				best := math.Inf(1)
				for i := 0; col >= 0 && i < tab.m; i++ {
					if v := tab.row(i)[col]; v > eps && tab.rhs[i]/v < best {
						best, row = tab.rhs[i]/v, i
					}
				}
			}
			if row < 0 {
				row, col = rng.Intn(tab.m), rng.Intn(tab.n)
				if math.Abs(tab.row(row)[col]) <= eps {
					continue
				}
			}
			tab.pivot(row, col)
			ref.pivot(row, col)
			pivots++
			if diff := sameTableau(tab, ref); diff != "" {
				t.Fatalf("trial %d step %d pivot (%d,%d): %s", trial, step, row, col, diff)
			}
		}
	}
	if pivots < 4000 {
		t.Fatalf("only %d pivots compared", pivots)
	}
}

// TestIterationLimit: a phase that runs out of pivots reports
// IterationLimit, never Infeasible (phase 1) or Unbounded (phase 2).
func TestIterationLimit(t *testing.T) {
	// x + y >= 2 with x, y <= 1: feasible, and phase 1 needs two pivots.
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, GE, 2)
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{0, 1}, LE, 1)
	var w Workspace
	for limit := 0; limit < 2; limit++ {
		if s := w.solve(p, limit); s.Status != IterationLimit {
			t.Errorf("phase 1 with limit %d: status %v, want %v", limit, s.Status, IterationLimit)
		}
	}
	if s := w.solve(p, maxIterations); s.Status != Optimal || !approx(s.Obj, 2) {
		t.Errorf("unlimited: %+v, want optimal with obj 2", s)
	}
	// max x + y with x, y <= 1: phase 2 needs two pivots.
	q := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	q.AddConstraint([]float64{1}, LE, 1)
	q.AddConstraint([]float64{0, 1}, LE, 1)
	if s := w.solve(q, 1); s.Status != IterationLimit {
		t.Errorf("phase 2 with limit 1: status %v, want %v", s.Status, IterationLimit)
	}
	if s := w.solve(q, 2); s.Status != Optimal || !approx(s.Obj, 2) {
		t.Errorf("phase 2 with limit 2: %+v, want optimal with obj 2", s)
	}
}
