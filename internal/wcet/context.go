package wcet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/arm"
	"repro/internal/cfg"
	"repro/internal/ilp"
	"repro/internal/link"
	"repro/internal/lp"
	"repro/internal/mem"
	"repro/internal/obs"
)

// Incremental-analysis metrics. Builds count NewContext calls (the cold
// work: CFG + IPET skeletons + cost decomposition); reuses count Analyze
// calls answered from an existing context. The block counters expose the
// tentpole ratio — of all blocks in the program, how many actually needed
// re-pricing for a placement delta.
var (
	mCtxBuilds = obs.Default.Counter("wcetlab_context_builds_total",
		"Analysis contexts built from scratch (CFG + IPET skeleton + cost decomposition).")
	mCtxReuses = obs.Default.Counter("wcetlab_context_reuses_total",
		"Analyses served by re-pricing an existing context instead of a cold build.")
	mCtxBlocksRepriced = obs.Default.Counter("wcetlab_context_blocks_repriced_total",
		"Blocks whose cost was recomputed across all context analyses.")
	mCtxBlocksTotal = obs.Default.Counter("wcetlab_context_blocks_total",
		"Blocks in scope across all context analyses (repriced + reused).")
	mCtxFuncsSolved = obs.Default.Counter("wcetlab_context_funcs_solved_total",
		"Per-function IPET re-solves across all context analyses.")
	mCtxFuncsTotal = obs.Default.Counter("wcetlab_context_funcs_total",
		"Functions in scope across all context analyses (solved + reused).")
	mSolverHits = obs.Default.Counter("wcetlab_solver_state_hits_total",
		"Per-function IPET solves served from recorded solver state.")
	mSolverMisses = obs.Default.Counter("wcetlab_solver_state_misses_total",
		"Per-function IPET solves that ran because no recorded state matched.")
)

// ContextStats are one Context's cumulative reuse counters, for tests and
// the pipeline's statistics tables.
type ContextStats struct {
	// Analyses is the number of Analyze calls served.
	Analyses uint64
	// BlocksRepriced / BlocksTotal: blocks whose cost coefficient was
	// recomputed vs blocks in scope, summed over analyses. Their ratio is
	// the fraction of pricing work an incremental analysis actually does.
	BlocksRepriced uint64
	BlocksTotal    uint64
	// FuncsSolved / FuncsTotal: per-function IPET programs re-solved vs in
	// scope, summed over analyses.
	FuncsSolved uint64
	FuncsTotal  uint64
}

// ctxRef is one placement-dependent data access of a block, aggregated per
// (object, width): n accesses per block execution whose cost is SPMCycles
// when priceObj sits in the scratchpad and MainCost(width) otherwise.
// witObj is the object the worst-case-path witness attributes the accesses
// to (the placement containing the address — empty to skip, matching the
// stack-region skip in Witness.addAccesses). The two names coincide for
// every access the toolchain can emit; they are kept separate because
// pricing follows the access hint while the witness follows the address.
type ctxRef struct {
	priceObj string
	witObj   string
	width    uint8
	n        int64
}

// ctxBlock is one basic block's placement-cost decomposition:
//
//	cost(b) = constCycles
//	        + fetchHW · (inSPM(owner) ? SPMCycles : MainHalfCycles)
//	        + Σ refs: n · (inSPM(priceObj) ? SPMCycles : MainCost(width))
//
// All terms are integers, so recomputing from the decomposition is
// bit-identical to the cost model's instruction walk in any order.
type ctxBlock struct {
	b  *cfg.Block
	fn *ctxFunc
	// constCycles is the placement-independent part: internal cycles,
	// unconditional-transfer penalties and stack-access costs (the stack is
	// never scratchpad-allocated).
	constCycles int64
	// fetchHW is the halfword fetch count, priced by the owning object.
	fetchHW int64
	refs    []ctxRef
	// cost is the block's cycle cost under the context's current placement.
	cost int64
}

// ctxFunc is one function's reusable IPET machinery.
type ctxFunc struct {
	f      *cfg.Function
	ip     *ipetProgram
	prep   *lp.Prepared // phase-1-solved constraint skeleton
	blocks []*ctxBlock  // indexed by cfg block Index
	dirty  bool         // some block cost changed since the last solve
	sol    *ipetSolution
	wcet   uint64
	// depObjs are the objects this function's block costs depend on (owners
	// and priced access targets), sorted; callees its distinct call targets,
	// sorted. Together they define the solve-input signature (funcSig).
	depObjs []string
	callees []string
	// memo records every solution this function has had, by the input
	// signature it was solved under.
	memo map[string]funcSolution
}

// funcSolution is a memoized IPET solution in compact form: edge counts
// are a slice in the function's IPET edge order rather than a map, which
// keeps a long sweep's memo small.
type funcSolution struct {
	wcet   uint64
	blocks []uint64
	edges  []uint64
}

// Context is a reusable analysis context: everything placement-independent
// about analysing one program — CFG, topological order, per-function IPET
// constraint skeletons (phase-1 solved), and the per-block decomposition of
// cycle costs into constant and placement-priced terms — built once and
// re-solved per placement.
//
// Analyze re-prices only the blocks that depend on objects whose placement
// changed since the previous call (via the object → blocks dependence
// index), re-solves only the functions owning such blocks (plus callers
// whose callee bounds moved), and warm-starts each IPET solve from the
// prepared tableau and the previous solution's re-priced value. Results are
// bit-identical to a from-scratch Analyze of the same placement.
//
// The context is built from a scratchpad-less base link of the program; it
// models cache-less systems only (the cache analysis walks concrete
// addresses and abstract states, which a placement delta invalidates
// wholesale). All methods are safe for concurrent use; analyses on one
// context serialise.
type Context struct {
	mu      sync.Mutex
	exe     *link.Executable // base link: spmSize 0, nothing placed
	g       *cfg.Graph
	order   []string // callees-first
	root    string
	stackLo uint32
	funcs   map[string]*ctxFunc
	// deps maps an object name to the blocks whose cost depends on its
	// placement (fetch owner or data-access target).
	deps map[string][]*ctxBlock
	// cur is the placement the per-block costs and solutions reflect.
	cur     map[string]bool
	nblocks uint64
	stats   ContextStats
	// Solver-memo hit/miss counters are atomics so stats readers never
	// block on an in-flight analysis.
	stateHits, stateMisses atomic.Uint64
}

// NewContext builds the reusable analysis context for the program behind
// the given base executable, which must be linked without a scratchpad
// (spmSize 0): object addresses from the base link anchor the witness
// attribution, which is layout-independent. opts.Cache must be nil.
func NewContext(exe *link.Executable, opts Options) (*Context, error) {
	if opts.Cache != nil {
		return nil, fmt.Errorf("wcet: incremental context does not model caches")
	}
	if exe.SPMSize != 0 {
		return nil, fmt.Errorf("wcet: incremental context needs a scratchpad-less base link")
	}
	root := opts.Root
	if root == "" {
		root = exe.Prog.Entry
	}
	if root == "" {
		return nil, fmt.Errorf("wcet: no analysis root")
	}
	g, err := cfg.Build(exe, root)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	stackLo := link.StackBase
	if opts.StackBound > 0 && opts.StackBound < link.StackSize {
		stackLo = link.StackTop - opts.StackBound
	}

	c := &Context{
		exe: exe, g: g, order: order, root: root, stackLo: stackLo,
		funcs: make(map[string]*ctxFunc, len(order)),
		deps:  make(map[string][]*ctxBlock),
		cur:   make(map[string]bool),
	}
	for _, name := range order {
		f := g.Funcs[name]
		ip, err := newIPETProgram(f)
		if err != nil {
			return nil, err
		}
		cf := &ctxFunc{
			f: f, ip: ip,
			prep:   lp.Prepare(&lp.Problem{NumVars: ip.n, Cons: ip.cons}),
			blocks: make([]*ctxBlock, len(f.Blocks)),
			dirty:  true,
			memo:   make(map[string]funcSolution),
		}
		for _, b := range f.Blocks {
			cb, err := c.decompose(f, b)
			if err != nil {
				return nil, err
			}
			cb.fn = cf
			cf.blocks[b.Index] = cb
			c.nblocks++
			c.link(cb)
		}
		depSet := make(map[string]bool)
		for _, cb := range cf.blocks {
			depSet[cb.b.Obj] = true
			for _, r := range cb.refs {
				depSet[r.priceObj] = true
			}
		}
		calleeSet := make(map[string]bool)
		for _, cs := range f.Calls {
			calleeSet[cs.Callee] = true
		}
		cf.depObjs = sortedNames(depSet)
		cf.callees = sortedNames(calleeSet)
		c.funcs[name] = cf
	}
	mCtxBuilds.Inc()
	return c, nil
}

// decompose walks one block's instructions once, splitting its worst-case
// cycles into the placement-independent constant and the placement-priced
// fetch and data terms, mirroring costModel.blockCost (cache-less) exactly.
func (c *Context) decompose(f *cfg.Function, b *cfg.Block) (*ctxBlock, error) {
	cb := &ctxBlock{b: b}
	type refKey struct {
		priceObj, witObj string
		width            uint8
	}
	refs := make(map[refKey]int64)
	var keys []refKey
	for _, ci := range b.Instrs {
		cb.fetchHW += int64(ci.Size / 2)
		switch {
		case ci.In.IsLoad():
			cb.constCycles += arm.CyclesLoadInternal
		case ci.In.Op == arm.OpMul:
			cb.constCycles += arm.CyclesMul
		case ci.In.Op == arm.OpSwi:
			cb.constCycles += arm.CyclesSwi
		}
		switch {
		case ci.In.Op == arm.OpB, ci.In.Op == arm.OpBlLo, ci.CallTarget != "", ci.CrossTarget != "":
			cb.constCycles += arm.CyclesBranchTaken
		case ci.In.IsReturn():
			cb.constCycles += arm.CyclesBranchTaken
		}
		das, err := instrAccesses(c.exe, ci, c.stackLo)
		if err != nil {
			return nil, fmt.Errorf("wcet: %s: %w", f.Name, err)
		}
		for _, da := range das {
			addr := da.addr
			if da.kind == accRange {
				addr = da.lo
			}
			pl := c.exe.FindAddr(addr)
			if pl == nil {
				// Stack region: never scratchpad-allocated, priced at main
				// memory unconditionally, skipped by the witness.
				cb.constCycles += int64(mem.MainCost(da.width))
				continue
			}
			// Pricing follows the access hint (costModel prices
			// Placement(ci.Hint)); literal-pool loads have no hint and are
			// priced by the object containing the literal, which travels
			// with the function in every layout.
			priceObj := ci.Hint
			if ci.In.Op == arm.OpLdrPC || priceObj == "" {
				priceObj = pl.Obj.Name
			}
			k := refKey{priceObj: priceObj, witObj: pl.Obj.Name, width: da.width}
			if _, ok := refs[k]; !ok {
				keys = append(keys, k)
			}
			refs[k]++
		}
	}
	for _, k := range keys {
		cb.refs = append(cb.refs, ctxRef{priceObj: k.priceObj, witObj: k.witObj, width: k.width, n: refs[k]})
	}
	cb.cost = cb.price(c.cur)
	return cb, nil
}

// link registers cb in the object → blocks dependence index.
func (c *Context) link(cb *ctxBlock) {
	seen := map[string]bool{cb.b.Obj: true}
	c.deps[cb.b.Obj] = append(c.deps[cb.b.Obj], cb)
	for _, r := range cb.refs {
		if !seen[r.priceObj] {
			seen[r.priceObj] = true
			c.deps[r.priceObj] = append(c.deps[r.priceObj], cb)
		}
	}
}

// price evaluates the block's decomposition under a placement.
func (cb *ctxBlock) price(inSPM map[string]bool) int64 {
	total := cb.constCycles
	if inSPM[cb.b.Obj] {
		total += cb.fetchHW * mem.SPMCycles
	} else {
		total += cb.fetchHW * mem.MainHalfCycles
	}
	for _, r := range cb.refs {
		if inSPM[r.priceObj] {
			total += r.n * mem.SPMCycles
		} else {
			total += r.n * int64(mem.MainCost(r.width))
		}
	}
	return total
}

// validate runs the linker's address walk (identical diagnostics) and
// returns the effective placement — inSPM restricted to the program's
// objects, as the linker silently ignores unknown names.
func (c *Context) validate(spmSize uint32, inSPM map[string]bool) (map[string]bool, error) {
	lay, err := link.Layout(c.exe.Prog, spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	eff := make(map[string]bool, len(inSPM))
	for i, l := range lay {
		if l.InSPM {
			eff[c.exe.Prog.Objects[i].Name] = true
		}
	}
	return eff, nil
}

// Analyze computes the WCET bound of the program under the given scratchpad
// capacity and placement, re-pricing and re-solving only what the delta
// from the previous call touches. The result (bound, per-function bounds
// and witness) is bit-identical to
//
//	wcet.Analyze(link.Link(prog, spmSize, inSPM), opts)
//
// for the options the context was built with.
func (c *Context) Analyze(spmSize uint32, inSPM map[string]bool, witness bool) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	eff, err := c.validate(spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	if c.stats.Analyses > 0 {
		mCtxReuses.Inc()
	}
	c.stats.Analyses++

	// Re-price the blocks that depend on objects whose placement changed.
	repriced := 0
	touch := func(name string) {
		for _, cb := range c.deps[name] {
			if nc := cb.price(eff); nc != cb.cost {
				cb.cost = nc
				cb.fn.dirty = true
			}
			repriced++
		}
	}
	for name := range eff {
		if !c.cur[name] {
			touch(name)
		}
	}
	for name := range c.cur {
		if !eff[name] {
			touch(name)
		}
	}
	c.cur = eff
	c.stats.BlocksRepriced += uint64(repriced)
	c.stats.BlocksTotal += c.nblocks
	mCtxBlocksRepriced.Add(uint64(repriced))
	mCtxBlocksTotal.Add(c.nblocks)

	// Re-solve dirty functions and callers of functions whose bound moved,
	// callees-first so callExtra always uses fresh callee bounds.
	res := &Result{PerFunction: make(map[string]uint64, len(c.order))}
	changed := make(map[string]bool)
	solved := 0
	for _, name := range c.order {
		cf := c.funcs[name]
		need := cf.dirty || cf.sol == nil
		if !need {
			for _, cs := range cf.f.Calls {
				if changed[cs.Callee] {
					need = true
					break
				}
			}
		}
		if need {
			// Memo fast path: an identical signature means an identical
			// objective over the same skeleton, so the recorded solution
			// is what solveFunc would compute.
			sig := c.funcSig(cf)
			if fs, ok := cf.memo[sig]; ok {
				c.adopt(cf, cf.expand(fs), changed)
				c.stateHits.Add(1)
				mSolverHits.Inc()
			} else {
				if err := c.solveFunc(cf, changed); err != nil {
					return nil, err
				}
				solved++
				c.stateMisses.Add(1)
				mSolverMisses.Inc()
				cf.memo[sig] = cf.compact()
			}
		}
		res.PerFunction[name] = cf.wcet
	}
	c.stats.FuncsSolved += uint64(solved)
	c.stats.FuncsTotal += uint64(len(c.order))
	mCtxFuncsSolved.Add(uint64(solved))
	mCtxFuncsTotal.Add(uint64(len(c.order)))

	res.WCET = res.PerFunction[c.root]
	if witness {
		res.Witness = c.rebuildWitness()
	}
	return res, nil
}

// solveFunc re-solves one function's IPET program under the current block
// costs, warm-started from the prepared tableau and — when a previous
// solution exists — seeded with its value under the new objective (the old
// worst-case path stays feasible, so its re-priced cost is achievable and
// prunes strictly-worse subtrees without affecting the result). Marks the
// function in changed when its bound moved.
func (c *Context) solveFunc(cf *ctxFunc, changed map[string]bool) error {
	callExtra := make(map[*cfg.Block]int64)
	for _, cs := range cf.f.Calls {
		callExtra[cs.Block] += int64(c.funcs[cs.Callee].wcet)
	}
	obj := append([]float64(nil), cf.ip.template...)
	for _, b := range cf.f.Blocks {
		obj[b.Index] = float64(cf.blocks[b.Index].cost + callExtra[b])
	}
	opt := ilp.Options{Root: cf.prep}
	if cf.sol != nil {
		seed := 0.0
		for _, b := range cf.f.Blocks {
			seed += obj[b.Index] * float64(cf.sol.blocks[b.Index])
		}
		for _, ev := range cf.ip.edges {
			seed += obj[ev.idx] * float64(cf.sol.edges[ev.e])
		}
		opt.Incumbent, opt.HasIncumbent = seed, true
	}
	sol, err := cf.ip.solve(obj, opt)
	if err != nil {
		return err
	}
	c.adopt(cf, sol, changed)
	return nil
}

// funcSig is the function's solve-input signature under the context's
// current placement: the scratchpad-resident subset of the objects its block
// costs depend on, then each callee's current bound. Two solves with equal
// signatures have identical objectives (the constraint skeleton is static),
// and the solver is deterministic, so equal signatures imply equal solutions.
func (c *Context) funcSig(cf *ctxFunc) string {
	var sb strings.Builder
	for _, d := range cf.depObjs {
		if c.cur[d] {
			sb.WriteString(d)
			sb.WriteByte(',')
		}
	}
	sb.WriteByte('|')
	for _, callee := range cf.callees {
		sb.WriteString(callee)
		sb.WriteByte('=')
		var buf [20]byte
		sb.Write(strconv.AppendUint(buf[:0], c.funcs[callee].wcet, 10))
		sb.WriteByte(',')
	}
	return sb.String()
}

// compact returns the function's current solution in memo form. Solutions
// are never mutated once built, so the block counts are shared.
func (cf *ctxFunc) compact() funcSolution {
	edges := make([]uint64, len(cf.ip.edges))
	for i, ev := range cf.ip.edges {
		edges[i] = cf.sol.edges[ev.e]
	}
	return funcSolution{wcet: cf.wcet, blocks: cf.sol.blocks, edges: edges}
}

// expand is the inverse of compact.
func (cf *ctxFunc) expand(fs funcSolution) *ipetSolution {
	sol := &ipetSolution{wcet: fs.wcet, blocks: fs.blocks, edges: make(map[*cfg.Edge]uint64, len(cf.ip.edges))}
	for i, ev := range cf.ip.edges {
		sol.edges[ev.e] = fs.edges[i]
	}
	return sol
}

// adopt installs sol as the function's current solution, marking the
// function in changed when its bound moved.
func (c *Context) adopt(cf *ctxFunc, sol *ipetSolution, changed map[string]bool) {
	if cf.sol == nil || sol.wcet != cf.wcet {
		changed[cf.f.Name] = true
	}
	cf.sol, cf.wcet, cf.dirty = sol, sol.wcet, false
}

// rebuildWitness composes the cached per-function solutions and access
// attribution into the whole-program witness, mirroring buildWitness (the
// instruction walk is replaced by the cached decomposition).
func (c *Context) rebuildWitness() *Witness {
	w := &Witness{
		FuncRuns:       make(map[string]uint64, len(c.order)),
		BlockCounts:    make(map[string][]uint64, len(c.order)),
		EdgeCounts:     make(map[string][]EdgeCount, len(c.order)),
		ObjectAccesses: make(map[string]*AccessCounts),
	}
	w.FuncRuns[c.root] = 1
	for i := len(c.order) - 1; i >= 0; i-- {
		name := c.order[i]
		cf := c.funcs[name]
		runs := w.FuncRuns[name]
		for _, cs := range cf.f.Calls {
			w.FuncRuns[cs.Callee] += runs * cf.sol.blocks[cs.Block.Index]
		}
	}
	for _, name := range c.order {
		cf := c.funcs[name]
		runs := w.FuncRuns[name]
		counts := make([]uint64, len(cf.f.Blocks))
		for i, x := range cf.sol.blocks {
			counts[i] = x * runs
		}
		w.BlockCounts[name] = counts
		var ecs []EdgeCount
		for e, x := range cf.sol.edges {
			ecs = append(ecs, EdgeCount{From: e.From.Index, To: e.To.Index, Taken: e.Taken, Count: x * runs})
		}
		sort.Slice(ecs, func(i, j int) bool {
			if ecs[i].From != ecs[j].From {
				return ecs[i].From < ecs[j].From
			}
			if ecs[i].To != ecs[j].To {
				return ecs[i].To < ecs[j].To
			}
			return !ecs[i].Taken && ecs[j].Taken
		})
		w.EdgeCounts[name] = ecs
		for _, cb := range cf.blocks {
			n := counts[cb.b.Index]
			if n == 0 {
				continue
			}
			ac := w.ObjectAccesses[cb.b.Obj]
			if ac == nil {
				ac = &AccessCounts{}
				w.ObjectAccesses[cb.b.Obj] = ac
			}
			ac.Fetches += n * uint64(cb.fetchHW)
			for _, r := range cb.refs {
				if r.witObj == "" {
					continue
				}
				tac := w.ObjectAccesses[r.witObj]
				if tac == nil {
					tac = &AccessCounts{}
					w.ObjectAccesses[r.witObj] = tac
				}
				tac.add(r.width, n*uint64(r.n))
			}
		}
	}
	return w
}

// Root reports the analysis root the context was built for.
func (c *Context) Root() string { return c.root }

// Stats returns the context's cumulative reuse counters.
func (c *Context) Stats() ContextStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// StateCounts returns the solver memo's hit/miss counters. Safe to call
// without blocking an in-flight analysis.
func (c *Context) StateCounts() (hits, misses uint64) {
	return c.stateHits.Load(), c.stateMisses.Load()
}

// sortedNames returns the set's keys in sorted order.
func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
