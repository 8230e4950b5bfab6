// Package ilp solves (mixed) integer linear programs by branch & bound over
// the LP relaxation from internal/lp. It stands in for the commercial ILP
// solver (CPLEX) the paper uses for the scratchpad knapsack, and solves the
// IPET programs of the WCET analyser, whose flow-conservation relaxations
// are almost always integral already.
package ilp

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/lp"
	"repro/internal/obs"
)

// Process-wide solver metrics: one solve may come from the scratchpad
// knapsack or an IPET program — both count here; nodes measure the branch
// & bound search effort.
var (
	mSolves = obs.Default.Counter("wcetlab_ilp_solves_total",
		"Branch & bound ILP solves (knapsack and IPET programs).")
	mNodes = obs.Default.Counter("wcetlab_ilp_nodes_total",
		"Branch & bound nodes explored across all ILP solves.")
)

// ErrInfeasible reports that no integral point satisfies the constraints.
// Callers adding ε-constraints (internal/alloc's budget knapsack) branch on
// it to distinguish "constraint unsatisfiable" from solver failure.
var ErrInfeasible = errors.New("ilp: infeasible")

// Problem is an integer program: an LP plus integrality flags.
type Problem struct {
	LP lp.Problem
	// Integer marks variables that must take integral values. A nil slice
	// means every variable is integral.
	Integer []bool
}

// Solution of an integer program.
type Solution struct {
	Status lp.Status
	X      []float64 // integral for all flagged variables
	Obj    float64
}

const intTol = 1e-6

// MaxNodes bounds the branch & bound search; the structured problems in
// this repository stay far below it.
const MaxNodes = 200000

func (p *Problem) integral(i int) bool {
	return p.Integer == nil || (i < len(p.Integer) && p.Integer[i])
}

// Options tune a branch & bound solve with warm-start information carried
// over from a previous, closely related solve.
type Options struct {
	// Root, when non-nil, is a phase-1-solved tableau of p.LP's constraints
	// (lp.Prepare). The root relaxation then skips phase 1; branched nodes
	// add constraints and still solve cold.
	Root *lp.Prepared
	// Incumbent seeds the bound used to prune the search. It MUST be the
	// objective value of some feasible integral point under the CURRENT
	// objective (e.g. the previous iteration's solution re-priced); an
	// unachievable value can prune the optimum away. Seeding only discards
	// subtrees whose relaxation is strictly below the seed, so the returned
	// solution is identical to an unseeded solve.
	Incumbent    float64
	HasIncumbent bool
}

// Solve runs best-first branch & bound (maximisation).
func Solve(p *Problem) (Solution, error) { return SolveOpts(p, Options{}) }

// SolveOpts is Solve with warm-start options.
func SolveOpts(p *Problem, o Options) (Solution, error) {
	incumbent := Solution{Status: lp.Infeasible, Obj: math.Inf(-1)}
	// A node's relaxation is the root's objective and constraint rows,
	// which are never mutated, plus the branching rows on its path: a
	// child shares its parent's path and adds only its own row.
	type branchRow struct {
		con lp.Constraint
		up  *branchRow // the parent's branching row (nil below the root)
	}
	type node struct {
		path *branchRow
		root bool
	}
	stack := []node{{root: true}}
	// One tableau buffer, one constraint list and one unit row per
	// branching variable serve every node of this solve.
	var ws lp.Workspace
	relax := lp.Problem{NumVars: p.LP.NumVars, Objective: p.LP.Objective}
	var units [][]float64
	nodes := 0
	mSolves.Inc()
	defer func() { mNodes.Add(uint64(nodes)) }()
	for len(stack) > 0 {
		nodes++
		if nodes > MaxNodes {
			return incumbent, fmt.Errorf("ilp: node limit %d exceeded", MaxNodes)
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var rel lp.Solution
		if nd.root && o.Root != nil {
			rel = ws.SolveObjective(o.Root, relax.Objective)
		} else {
			relax.Cons = append(relax.Cons[:0], p.LP.Cons...)
			for r := nd.path; r != nil; r = r.up {
				relax.Cons = append(relax.Cons, r.con)
			}
			slices.Reverse(relax.Cons[len(p.LP.Cons):])
			rel = ws.Solve(&relax)
		}
		switch rel.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded, lp.IterationLimit:
			// A solver failure, never a pruned node: a relaxation that ran
			// out of pivots says nothing about the node's feasibility.
			return Solution{}, fmt.Errorf("ilp: relaxation %v", rel.Status)
		}
		if rel.Obj <= incumbent.Obj+intTol && incumbent.Status == lp.Optimal {
			continue // bound: cannot beat the incumbent
		}
		if o.HasIncumbent && rel.Obj < o.Incumbent-intTol {
			continue // bound: strictly below a known-achievable value
		}
		// Find the most fractional integral variable.
		branch := -1
		worst := intTol
		for i := 0; i < relax.NumVars; i++ {
			if !p.integral(i) {
				continue
			}
			f := math.Abs(rel.X[i] - math.Round(rel.X[i]))
			if f > worst {
				worst = f
				branch = i
			}
		}
		if branch < 0 {
			// Integral solution.
			if rel.Obj > incumbent.Obj {
				x := make([]float64, len(rel.X))
				for i, v := range rel.X {
					if p.integral(i) {
						x[i] = math.Round(v)
					} else {
						x[i] = v
					}
				}
				incumbent = Solution{Status: lp.Optimal, X: x, Obj: rel.Obj}
			}
			continue
		}
		v := rel.X[branch]
		lo, hi := math.Floor(v), math.Ceil(v)
		if units == nil {
			units = make([][]float64, relax.NumVars)
		}
		if units[branch] == nil {
			units[branch] = make([]float64, relax.NumVars)
			units[branch][branch] = 1
		}
		u := units[branch]
		stack = append(stack,
			node{path: &branchRow{con: lp.Constraint{Coef: u, Rel: lp.LE, RHS: lo}, up: nd.path}},
			node{path: &branchRow{con: lp.Constraint{Coef: u, Rel: lp.GE, RHS: hi}, up: nd.path}})
	}
	if incumbent.Status != lp.Optimal {
		return incumbent, ErrInfeasible
	}
	return incumbent, nil
}
