package ilp

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsackSmall(t *testing.T) {
	// Items (value, weight): (60,10) (100,20) (120,30), capacity 50.
	// Classic optimum: items 2+3 = 220.
	p := &Problem{LP: lp.Problem{NumVars: 3, Objective: []float64{60, 100, 120}}}
	p.LP.AddConstraint([]float64{10, 20, 30}, lp.LE, 50)
	for i := 0; i < 3; i++ {
		u := make([]float64, 3)
		u[i] = 1
		p.LP.AddConstraint(u, lp.LE, 1)
	}
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Obj, 220) {
		t.Fatalf("obj %g, want 220", s.Obj)
	}
	if !approx(s.X[0], 0) || !approx(s.X[1], 1) || !approx(s.X[2], 1) {
		t.Fatalf("x = %v, want (0,1,1)", s.X)
	}
}

func TestFractionalRelaxationForcedIntegral(t *testing.T) {
	// max x s.t. 2x <= 3, x integral → x = 1 (LP gives 1.5).
	p := &Problem{LP: lp.Problem{NumVars: 1, Objective: []float64{1}}}
	p.LP.AddConstraint([]float64{2}, lp.LE, 3)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.X[0], 1) {
		t.Fatalf("x = %v, want 1", s.X)
	}
}

func TestMixedInteger(t *testing.T) {
	// max x + y, x integral, y continuous; x <= 2.5, y <= 0.5.
	p := &Problem{
		LP:      lp.Problem{NumVars: 2, Objective: []float64{1, 1}},
		Integer: []bool{true, false},
	}
	p.LP.AddConstraint([]float64{1, 0}, lp.LE, 2.5)
	p.LP.AddConstraint([]float64{0, 1}, lp.LE, 0.5)
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.X[0], 2) || !approx(s.X[1], 0.5) {
		t.Fatalf("x = %v, want (2, 0.5)", s.X)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := &Problem{LP: lp.Problem{NumVars: 1, Objective: []float64{1}}}
	p.LP.AddConstraint([]float64{1}, lp.GE, 0.4)
	p.LP.AddConstraint([]float64{1}, lp.LE, 0.6)
	if _, err := Solve(p); err == nil {
		t.Fatal("expected infeasible")
	}
}

// TestPropertyAgainstExhaustiveKnapsack cross-checks branch & bound against
// exhaustive enumeration on random 0/1 knapsacks.
func TestPropertyAgainstExhaustiveKnapsack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 1 + rng.Intn(10)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := 0; i < n; i++ {
			values[i] = float64(1 + rng.Intn(100))
			weights[i] = float64(1 + rng.Intn(50))
		}
		capacity := float64(10 + rng.Intn(150))

		p := &Problem{LP: lp.Problem{NumVars: n, Objective: values}}
		p.LP.AddConstraint(weights, lp.LE, capacity)
		for i := 0; i < n; i++ {
			u := make([]float64, n)
			u[i] = 1
			p.LP.AddConstraint(u, lp.LE, 1)
		}
		s, err := Solve(p)
		if err != nil {
			return false
		}
		// Exhaustive optimum.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			v, w := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += values[i]
					w += weights[i]
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}
		return approx(s.Obj, best)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestIterationLimitIsAnError: a relaxation that runs out of simplex pivots
// fails the solve instead of being pruned as infeasible. The program is the
// 22-dimensional Klee–Minty cube (Bland's rule visits ~57000 vertices)
// with its objective turned into an ε-constraint row, so phase 1 follows
// the exponential path and hits the cap. x = (0, …, 0, 5^22) satisfies every
// row, so "infeasible" would be wrong.
func TestIterationLimitIsAnError(t *testing.T) {
	const n = 22
	p := &Problem{LP: lp.Problem{NumVars: n}}
	eps := make([]float64, n)
	for j := range eps {
		eps[j] = math.Pow(2, float64(n-1-j))
	}
	for i := 0; i < n; i++ {
		c := make([]float64, n)
		for j := 0; j < i; j++ {
			c[j] = math.Pow(2, float64(i-j+1))
		}
		c[i] = 1
		p.LP.AddConstraint(c, lp.LE, math.Pow(5, float64(i+1)))
	}
	p.LP.AddConstraint(eps, lp.GE, math.Pow(5, n))
	_, err := Solve(p)
	if err == nil || errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), lp.IterationLimit.String()) {
		t.Fatalf("err = %v, want an iteration-limit failure", err)
	}
}
