package wcet

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/ilp"
	"repro/internal/link"
	"repro/internal/lp"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/obs"
)

// Incremental-analysis metrics. A context without a cache domain counts
// into the wcetlab_context_* series, one with a cache domain into the
// wcetlab_cache_context_* series, so the two uses stay distinguishable.
// Builds count NewContext calls (the cold work: CFG + IPET skeletons +
// block decomposition); reuses count Analyze calls answered from an
// existing context.
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
	mCCtxBuilds = obs.Default.Counter("wcetlab_cache_context_builds_total",
		"Cache analysis contexts built from scratch (CFG + IPET skeletons + symbolic access streams).")
	mCCtxReuses = obs.Default.Counter("wcetlab_cache_context_reuses_total",
		"Cache analyses served by an existing cache context instead of a cold build.")
	mCCtxFuncsReanalyzed = obs.Default.Counter("wcetlab_cache_context_funcs_reanalyzed_total",
		"Functions whose MUST fixed point actually re-ran across cache-context analyses.")
	mCCtxFuncsTotal = obs.Default.Counter("wcetlab_cache_context_funcs_total",
		"Functions in scope across cache-context analyses (re-analyzed + reused).")
	mSolverHits = obs.Default.Counter("wcetlab_solver_state_hits_total",
		"Per-function IPET solves served from an analysis context's in-process solution memo.")
	mSolverMisses = obs.Default.Counter("wcetlab_solver_state_misses_total",
		"Per-function IPET solves that ran because the in-process solution memo had no entry for their block costs and callee bounds.")
)

// ctxMetrics is the series set a context counts builds, reuses and
// functions in scope into, chosen once at construction.
type ctxMetrics struct{ builds, reuses, funcs *obs.Counter }

var (
	plainMetrics = ctxMetrics{mCtxBuilds, mCtxReuses, mCtxFuncsTotal}
	cacheMetrics = ctxMetrics{mCCtxBuilds, mCCtxReuses, mCCtxFuncsTotal}
)

// ContextStats are one Context's cumulative reuse counters, for tests and
// the pipeline's statistics tables.
type ContextStats struct {
	// Analyses is the number of Analyze calls served.
	Analyses uint64
	// BlocksRepriced / BlocksTotal: blocks whose cost coefficient was
	// recomputed vs blocks in scope, summed over analyses without a cache
	// domain (zero with one). Their ratio is the fraction of pricing work
	// an incremental analysis actually does.
	BlocksRepriced uint64
	BlocksTotal    uint64
	// FuncsSolved: per-function IPET programs actually re-solved, summed
	// over analyses (the rest kept their solution or hit the memo).
	FuncsSolved uint64
	// FuncsReanalyzed: distinct functions whose intra-procedural MUST solve
	// actually ran during an analysis (re-entries of the interprocedural
	// fixed point are one), summed over analyses; zero without a cache
	// domain. A cold analysis re-runs every function; a warm one only the
	// functions whose layout footprint, entry state or callee exits changed.
	FuncsReanalyzed uint64
	// FuncsTotal: functions in scope, summed over analyses.
	FuncsTotal uint64
}

// symAccKind distinguishes how a data access's address resolves against a
// layout.
type symAccKind uint8

const (
	symStack symAccKind = iota // stack range [stackLo, StackTop)
	symLit                     // literal-pool load: PC-relative within the owner
	symExact                   // hinted scalar: the target object's address
	symRange                   // hinted range: the target object's extent
)

// symAcc is one data access of an instruction in layout-independent form:
// the access's identity is an (object, offset) pair rather than an absolute
// address, so resolving it against any layout reproduces instrAccesses
// byte-for-byte without re-deriving the classification.
type symAcc struct {
	kind  symAccKind
	width uint8
	write bool
	tgt   int32 // symExact/symRange: target placement index
	imm   int32 // symLit: PC-relative literal offset
}

// symInstr is one instruction of a block in layout-independent form. Its
// data accesses are the next nacc entries of the block's accs.
type symInstr struct {
	off  uint32 // fetch offset within the owning object
	size uint8  // 2 or 4
	nacc uint8
}

// ctxRef is n object-bound data accesses of one width per block execution:
// literal-pool loads charged to the block's owner (the pool travels with
// it), hinted accesses to their target. The refs are both the block's
// cache-less price terms and its witness attribution.
type ctxRef struct {
	obj   int32
	width uint8
	n     int64
}

// ctxBlock is one basic block's layout-independent decomposition: the
// cycle constant, the symbolic fetch and data-access stream the MUST
// transfer and cost walk replay against a concrete layout, and the access
// aggregates the cache-less price is derived from:
//
//	cost(b) = constCycles + stackCycles
//	        + fetchHW · (inSPM(owner) ? SPMCycles : MainHalfCycles)
//	        + Σ refs: n · (inSPM(obj) ? SPMCycles : MainCost(width))
//
// All terms are integers, so recomputing from the decomposition is
// bit-identical to the cost model's instruction walk in any order.
type ctxBlock struct {
	b     *cfg.Block
	fn    *ctxFunc
	owner int32 // placement index of the object holding the block
	// constCycles is the placement- and state-independent cycle sum
	// (internal cycles and unconditional-transfer penalties); interleaving
	// it with the stateful access costs is unnecessary because it never
	// touches the MUST state.
	constCycles int64
	// stackCycles prices the stack accesses without a cache: the stack is
	// never scratchpad-allocated, so they always cost main memory.
	stackCycles int64
	fetchHW     int64 // halfword fetches, priced by the owner
	instrs      []symInstr
	accs        []symAcc
	refs        []ctxRef
}

// classCounts are the classification counter deltas of one function's cost
// walk (the statistics Result surfaces).
type classCounts struct {
	fetchHit, fetchMiss, dataHit, dataMiss int
}

// mustRecord is one converged intra-procedural MUST solve of a function
// under an exact input signature: its exit state, the entry state its call
// blocks feed each callee, its per-block cycle costs and its classification
// counts. Records are immutable once built; reusing one is bit-identical to
// re-running the solve.
type mustRecord struct {
	exit     *mustState            // nil: no return block reached
	calleeIn map[string]*mustState // per callee: join over reached call blocks
	cost     []int64               // per block, by cfg Index
	counts   classCounts
}

// funcSolution is an IPET solution in compact form: edge counts are a
// slice in the function's IPET edge order rather than a map, which keeps a
// long sweep's memo small. Solutions are immutable once built.
type funcSolution struct {
	wcet   uint64
	blocks []uint64 // per-invocation block counts, by cfg Index
	edges  []uint64 // per-invocation edge counts, in ipetProgram.edges order
}

// ctxFunc is one function's reusable analysis machinery.
type ctxFunc struct {
	f      *cfg.Function
	ip     *ipetProgram
	prep   *lp.Prepared // phase-1-solved constraint skeleton
	blocks []*ctxBlock  // by cfg block Index
	// footprint lists the placement indices whose layout the function's
	// block costs read (block owners and hinted access targets), sorted;
	// callees/callers its sorted distinct call-graph neighbours.
	footprint []int32
	callees   []string
	callers   []string
	// cost is the per-block cycle cost (by cfg Index) the next solve
	// prices; dirty marks a change since the last solve.
	cost  []int64
	dirty bool
	// musts records converged MUST solves by exact input signature (funcKey);
	// rec is the record the latest analysis adopted. Cache domain only.
	musts map[string]*mustRecord
	rec   *mustRecord
	// sol is the adopted IPET solution; sols memoizes solutions by their
	// exact solve inputs (solveKey).
	sol  *funcSolution
	sols map[string]*funcSolution
}

// memoCap bounds the per-function memo maps. Serving processes see a
// bounded set of layouts × capacities, so the cap only guards pathological
// drift; eviction is arbitrary because the memo affects work done, never
// results.
const memoCap = 512

func putCapped[V any](m map[string]V, k string, v V) {
	if len(m) >= memoCap {
		for old := range m {
			delete(m, old)
			break
		}
	}
	m[k] = v
}

// Context is a reusable analysis context: everything about analysing one
// program that does not depend on the placement (or the cache capacity) —
// CFG, topological order, per-function IPET constraint skeletons (phase-1
// solved) and the layout-independent decomposition of every block — built
// once and re-solved per configuration. Results are bit-identical to a
// from-scratch Analyze of the same configuration.
//
// Without a cache domain (the paper's scratchpad systems need no further
// analysis), Analyze re-prices only the blocks that depend on objects whose
// placement changed since the previous call, via the object → blocks
// dependence index.
//
// With a cache domain (a cache shape: line size, associativity,
// instruction-only; the capacity is chosen per call), block costs come
// from per-function MUST solves, each keyed on exactly the inputs it reads:
// the cache size, the (address, side) layout of the function's object
// footprint, its entry state and its callees' exit states. Functions whose
// key is unchanged keep their per-block classifications verbatim; only
// functions touching moved objects, plus transitive callers and callees
// through changed states, re-enter the fixed point. The fixed point is the
// unique MFP of a monotone equation system, so recomputing affected
// functions from their current inputs is bit-identical to a cold
// whole-program run.
//
// Either way, functions whose block costs and callee bounds are unchanged
// keep their IPET solution; the rest are looked up in a per-function
// solution memo and otherwise re-solved, warm-started from the prepared
// tableau and the previous solution's value under the new objective.
//
// All methods are safe for concurrent use; analyses on one context
// serialise.
type Context struct {
	mu      sync.Mutex
	base    *link.Executable // base link: spmSize 0, nothing placed
	order   []string         // callees-first
	root    string
	stackLo uint32
	// shape is the cache shape with Size zeroed (set per Analyze); nil
	// means no cache domain.
	shape *cache.Config
	m     ctxMetrics

	objIdx  map[string]int32
	objName []string
	objSize []uint32
	funcs   map[string]*ctxFunc
	nblocks uint64

	// Without a cache domain: deps maps a placement index to the blocks
	// whose cost depends on that object's placement (fetch owner or data
	// target); cur is the placement the block costs reflect.
	deps [][]*ctxBlock
	cur  []bool

	// With a cache domain: stateIDs interns abstract states (identical
	// contents share one id; ids are never recycled, so signatures built
	// from them stay valid for the context's lifetime). lay/laySize/laySpm
	// describe the last completed MUST pass; an analysis with the same
	// capacities and an identical layout reuses every record without
	// touching the fixed point. pools holds one state pool per cache size.
	stateIDs map[string]int32
	lay      []link.ObjLayout
	laySize  uint32
	laySpm   uint32
	pools    map[uint32]*statePool

	// keyBuf is scratch space for state and solve keys.
	keyBuf []byte

	stats ContextStats
	// Atomic mirrors so stats readers never block on an in-flight analysis.
	stateHits, stateMisses   atomic.Uint64
	funcsReanalyzed, funcsIn atomic.Uint64
}

// NewContext builds the reusable analysis context for the program behind
// the given base executable, which must be linked without a scratchpad
// (spmSize 0): the symbolic access streams are anchored to its layout.
// With opts.Cache nil the context analyses cache-less systems; otherwise
// opts.Cache supplies the cache shape — its Size is ignored and chosen per
// Analyze, so one context serves a whole capacity sweep.
func NewContext(base *link.Executable, opts Options) (*Context, error) {
	if base.SPMSize != 0 {
		return nil, fmt.Errorf("wcet: analysis context needs a scratchpad-less base link")
	}
	root := opts.Root
	if root == "" {
		root = base.Prog.Entry
	}
	if root == "" {
		return nil, fmt.Errorf("wcet: no analysis root")
	}
	g, err := cfg.Build(base, root)
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

	n := len(base.Placements)
	c := &Context{
		base: base, order: order, root: root, stackLo: stackLo,
		m:       plainMetrics,
		objIdx:  make(map[string]int32, n),
		objName: make([]string, n),
		objSize: make([]uint32, n),
		funcs:   make(map[string]*ctxFunc, len(order)),
		deps:    make([][]*ctxBlock, n),
		cur:     make([]bool, n),
	}
	if opts.Cache != nil {
		shape := opts.Cache.WithDefaults()
		shape.Size = 0
		c.shape, c.m = &shape, cacheMetrics
		c.stateIDs = make(map[string]int32)
		c.pools = make(map[uint32]*statePool)
	}
	for i, pl := range base.Placements {
		c.objIdx[pl.Obj.Name] = int32(i)
		c.objName[i] = pl.Obj.Name
		c.objSize[i] = pl.Obj.Size()
	}
	callers := make(map[string]map[string]bool, len(order))
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
			cost:   make([]int64, len(f.Blocks)),
			dirty:  true,
			sols:   make(map[string]*funcSolution),
		}
		if c.shape != nil {
			cf.musts = make(map[string]*mustRecord)
		}
		for _, b := range f.Blocks {
			cb, err := c.decompose(f, b)
			if err != nil {
				return nil, err
			}
			cb.fn = cf
			cf.blocks[b.Index] = cb
			cf.cost[b.Index] = cb.price(c.cur)
			c.nblocks++
			for _, oi := range cb.objects() {
				c.deps[oi] = append(c.deps[oi], cb)
				if !slices.Contains(cf.footprint, oi) {
					cf.footprint = append(cf.footprint, oi)
				}
			}
		}
		slices.Sort(cf.footprint)
		calleeSet := make(map[string]bool)
		for _, cs := range f.Calls {
			calleeSet[cs.Callee] = true
			if callers[cs.Callee] == nil {
				callers[cs.Callee] = make(map[string]bool)
			}
			callers[cs.Callee][name] = true
		}
		cf.callees = sortedNames(calleeSet)
		c.funcs[name] = cf
	}
	for _, name := range order {
		c.funcs[name].callers = sortedNames(callers[name])
	}
	c.m.builds.Inc()
	return c, nil
}

// decompose walks one block's instructions once against the base layout,
// splitting its cost into the constant, the symbolic access stream and the
// per-(object, width) access aggregates — mirroring costModel.blockCost,
// instrAccesses and Witness.addAccesses. Access-metadata violations surface
// here, once, instead of per analysis.
func (c *Context) decompose(f *cfg.Function, b *cfg.Block) (*ctxBlock, error) {
	owner, ok := c.objIdx[b.Obj]
	if !ok {
		return nil, fmt.Errorf("wcet: %s: block object %q not placed", f.Name, b.Obj)
	}
	cb := &ctxBlock{b: b, owner: owner, instrs: make([]symInstr, 0, len(b.Instrs))}
	ownerBase := c.base.Placements[owner].Addr
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
		accs, err := c.symAccesses(ci)
		if err != nil {
			return nil, fmt.Errorf("wcet: %s: %w", f.Name, err)
		}
		for _, a := range accs {
			obj := a.tgt
			switch a.kind {
			case symStack:
				cb.stackCycles += int64(mem.MainCost(a.width))
				continue
			case symLit:
				obj = owner
			}
			i := slices.IndexFunc(cb.refs, func(r ctxRef) bool { return r.obj == obj && r.width == a.width })
			if i < 0 {
				i = len(cb.refs)
				cb.refs = append(cb.refs, ctxRef{obj: obj, width: a.width})
			}
			cb.refs[i].n++
		}
		cb.instrs = append(cb.instrs, symInstr{off: ci.Addr - ownerBase, size: uint8(ci.Size), nacc: uint8(len(accs))})
		cb.accs = append(cb.accs, accs...)
	}
	return cb, nil
}

// objects lists the distinct placement indices the block's cost depends on:
// its owner, then its data targets.
func (cb *ctxBlock) objects() []int32 {
	objs := []int32{cb.owner}
	for _, r := range cb.refs {
		if !slices.Contains(objs, r.obj) {
			objs = append(objs, r.obj)
		}
	}
	return objs
}

// price evaluates the block's cache-less cost under a placement (by
// placement index).
func (cb *ctxBlock) price(inSPM []bool) int64 {
	total := cb.constCycles + cb.stackCycles
	if inSPM[cb.owner] {
		total += cb.fetchHW * mem.SPMCycles
	} else {
		total += cb.fetchHW * mem.MainHalfCycles
	}
	for _, r := range cb.refs {
		if inSPM[r.obj] {
			total += r.n * mem.SPMCycles
		} else {
			total += r.n * int64(mem.MainCost(r.width))
		}
	}
	return total
}

// symAccesses is instrAccesses in symbolic form: the same case analysis,
// but classifying each access as (kind, object) rather than materialising
// addresses, which resolve() re-derives per layout.
func (c *Context) symAccesses(ci cfg.Instr) ([]symAcc, error) {
	in := ci.In
	if !in.IsLoad() && !in.IsStore() {
		return nil, nil
	}
	stackAccesses := func(n int, write bool) []symAcc {
		out := make([]symAcc, n)
		for i := range out {
			out[i] = symAcc{kind: symStack, width: 4, write: write}
		}
		return out
	}
	switch in.Op {
	case arm.OpLdrPC:
		return []symAcc{{kind: symLit, imm: in.Imm, width: 4}}, nil
	case arm.OpPush:
		return stackAccesses(in.RegCount(), true), nil
	case arm.OpPop:
		return stackAccesses(in.RegCount(), false), nil
	case arm.OpStmia:
		return stackAccesses(in.RegCount(), true), nil
	case arm.OpLdmia:
		return stackAccesses(in.RegCount(), false), nil
	case arm.OpLdrSP:
		return stackAccesses(1, false), nil
	case arm.OpStrSP:
		return stackAccesses(1, true), nil
	}
	if ci.Hint != "" {
		pl := c.base.Placement(ci.Hint)
		if pl == nil {
			return nil, fmt.Errorf("wcet: %#x: access hint %q not placed", ci.Addr, ci.Hint)
		}
		a := symAcc{tgt: c.objIdx[ci.Hint], width: in.AccessWidth(), write: in.IsStore()}
		if pl.Obj.Kind == obj.Data && pl.Obj.Size() == uint32(pl.Obj.ElemWidth) {
			a.kind = symExact
		} else {
			a.kind = symRange
		}
		return []symAcc{a}, nil
	}
	// Frame-pointer relative (the code generator reserves r7 as FP).
	if in.Rs == 7 {
		switch in.Op {
		case arm.OpLdrImm, arm.OpLdrReg:
			return stackAccesses(1, false), nil
		case arm.OpStrImm, arm.OpStrReg:
			return stackAccesses(1, true), nil
		}
	}
	return nil, fmt.Errorf("wcet: %#x: %s has no address information (missing access hint)",
		ci.Addr, in.Disasm(ci.Addr))
}

// Analyze computes the WCET bound of the program under the given cache
// capacity, scratchpad capacity and placement, redoing only the work the
// delta from the previous call touches. The result — bound, per-function
// bounds, witness and classification counts — is bit-identical to
//
//	wcet.Analyze(link.Link(prog, spmSize, inSPM), opts)
//
// for the options the context was built with, with opts.Cache.Size =
// cacheSize. A context without a cache domain takes cacheSize 0.
func (c *Context) Analyze(cacheSize, spmSize uint32, inSPM map[string]bool, witness bool) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Link-identical error precedence: the layout walk first (the cold path
	// links before analysing), then the full cache validation.
	lay, err := link.Layout(c.base.Prog, spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	var cc cache.Config
	if c.shape != nil {
		cc = *c.shape
		cc.Size = cacheSize
		if err := cc.Validate(); err != nil {
			return nil, err
		}
	} else if cacheSize != 0 {
		return nil, fmt.Errorf("wcet: cache size %d for a context without a cache domain", cacheSize)
	}

	if c.stats.Analyses > 0 {
		c.m.reuses.Inc()
	}
	c.stats.Analyses++

	res := &Result{PerFunction: make(map[string]uint64, len(c.order))}
	if c.shape == nil {
		c.reprice(lay)
	} else if err := c.replayMust(cc, lay, spmSize); err != nil {
		return nil, err
	}

	// Path analysis, callees-first so a solve always sees fresh callee
	// bounds: a function whose block costs and callee bounds are unchanged
	// keeps its solution; otherwise an identical solve input means an
	// identical objective over the same skeleton, so a memoized solution is
	// what a solve would compute.
	changed := make(map[string]bool)
	var solved uint64
	for _, name := range c.order {
		cf := c.funcs[name]
		if rec := cf.rec; rec != nil {
			res.FetchAlwaysHit += rec.counts.fetchHit
			res.FetchUnclassified += rec.counts.fetchMiss
			res.DataAlwaysHit += rec.counts.dataHit
			res.DataUnclassified += rec.counts.dataMiss
		}
		need := cf.dirty || cf.sol == nil
		for _, callee := range cf.callees {
			need = need || changed[callee]
		}
		if need {
			// Stays dirty until adopted, so a failed solve is retried.
			cf.dirty = true
			key := c.solveKey(cf)
			sol := cf.sols[string(key)]
			if sol != nil {
				c.stateHits.Add(1)
				mSolverHits.Inc()
			} else {
				if sol, err = c.solveFunc(cf); err != nil {
					return nil, err
				}
				solved++
				c.stateMisses.Add(1)
				mSolverMisses.Inc()
				putCapped(cf.sols, string(key), sol)
			}
			if cf.sol == nil || sol.wcet != cf.sol.wcet {
				changed[name] = true
			}
			cf.sol, cf.dirty = sol, false
		}
		res.PerFunction[name] = cf.sol.wcet
	}
	nf := uint64(len(c.order))
	c.stats.FuncsSolved += solved
	c.stats.FuncsTotal += nf
	c.m.funcs.Add(nf)
	if c.shape == nil {
		mCtxFuncsSolved.Add(solved)
	} else {
		c.funcsIn.Add(nf)
	}

	res.WCET = res.PerFunction[c.root]
	if witness {
		res.Witness = c.rebuildWitness()
	}
	return res, nil
}

// reprice updates the cache-less block costs for the layout's placement,
// re-pricing only the blocks that depend on objects whose placement
// changed.
func (c *Context) reprice(lay []link.ObjLayout) {
	in := make([]bool, len(lay))
	for i, l := range lay {
		in[i] = l.InSPM
	}
	var repriced uint64
	for oi := range in {
		if in[oi] == c.cur[oi] {
			continue
		}
		for _, cb := range c.deps[oi] {
			if nc := cb.price(in); nc != cb.fn.cost[cb.b.Index] {
				cb.fn.cost[cb.b.Index] = nc
				cb.fn.dirty = true
			}
			repriced++
		}
	}
	c.cur = in
	c.stats.BlocksRepriced += repriced
	c.stats.BlocksTotal += c.nblocks
	mCtxBlocksRepriced.Add(repriced)
	mCtxBlocksTotal.Add(c.nblocks)
}

// replayMust brings every function's MUST record, and so its block costs,
// up to date for the cache configuration and layout.
func (c *Context) replayMust(cc cache.Config, lay []link.ObjLayout, spmSize uint32) error {
	// Layout-stable fast path: no object moved and the capacities are
	// unchanged, so every function's record is verbatim valid.
	if c.lay != nil && cc.Size == c.laySize && spmSize == c.laySpm &&
		len(link.MovedObjects(c.lay, lay)) == 0 {
		return nil
	}
	pool := c.pools[cc.Size]
	if pool == nil {
		pool = newStatePool(cc)
		c.pools[cc.Size] = pool
	}

	// Interprocedural chaotic iteration at function granularity,
	// callers-first so entry states propagate downward early. Entry states
	// are the join over callers' recorded contributions; exit changes wake
	// callers, record changes wake callees. Converges to the same unique MFP
	// as the cold block-level iteration. reran collects the distinct
	// functions whose MUST solve ran: the incremental savings metric
	// (fixed-point re-entries of the same function are an implementation
	// detail, not extra staleness).
	recs := make(map[string]*mustRecord, len(c.order))
	reran := make(map[string]bool)
	work := make([]string, 0, len(c.order))
	queued := make(map[string]bool, len(c.order))
	push := func(name string) {
		if !queued[name] {
			queued[name] = true
			work = append(work, name)
		}
	}
	for i := len(c.order) - 1; i >= 0; i-- {
		push(c.order[i])
	}
	steps := 0
	for len(work) > 0 {
		steps++
		if steps > 1_000_000 {
			return fmt.Errorf("wcet: cache analysis did not converge")
		}
		name := work[0]
		work = work[1:]
		queued[name] = false
		cf := c.funcs[name]

		var entry *mustState
		if name == c.root {
			entry = pool.top()
		}
		for _, caller := range cf.callers {
			if cr := recs[caller]; cr != nil {
				if contrib := cr.calleeIn[name]; contrib != nil {
					if entry == nil {
						entry = pool.cloneOf(contrib)
					} else {
						entry.join(contrib)
					}
				}
			}
		}

		key := c.funcKey(cf, cc.Size, spmSize, lay, c.stateID(entry), recs)
		rec := cf.musts[key]
		if rec == nil {
			var err error
			rec, err = c.runFunc(cf, cc, lay, spmSize, entry, recs, pool)
			if err != nil {
				pool.put(entry)
				return err
			}
			putCapped(cf.musts, key, rec)
			reran[name] = true
		}
		pool.put(entry)

		if old := recs[name]; old != rec {
			recs[name] = rec
			for _, callee := range cf.callees {
				push(callee)
			}
			exitChanged := old == nil ||
				(old.exit == nil) != (rec.exit == nil) ||
				(old.exit != nil && !old.exit.equal(rec.exit))
			if exitChanged {
				for _, caller := range cf.callers {
					push(caller)
				}
			}
		}
	}
	for _, name := range c.order {
		cf := c.funcs[name]
		if rec := recs[name]; rec != cf.rec {
			cf.rec, cf.cost, cf.dirty = rec, rec.cost, true
		}
	}
	c.lay, c.laySize, c.laySpm = lay, cc.Size, spmSize

	n := uint64(len(reran))
	c.stats.FuncsReanalyzed += n
	c.funcsReanalyzed.Add(n)
	mCCtxFuncsReanalyzed.Add(n)
	return nil
}

// resolve materialises one symbolic access against a layout, reproducing
// instrAccesses exactly. instrAddr is the access's instruction address
// under the layout (needed for PC-relative literals only).
func (c *Context) resolve(a symAcc, lay []link.ObjLayout, instrAddr, spmSize uint32) dataAccess {
	switch a.kind {
	case symStack:
		return dataAccess{kind: accRange, lo: c.stackLo, hi: link.StackTop, width: 4, write: a.write}
	case symLit:
		addr := ((instrAddr + 4) &^ 3) + uint32(a.imm)
		return dataAccess{kind: accExact, addr: addr, width: 4,
			inSPM: spmSize > 0 && addr < link.SPMBase+spmSize}
	case symExact:
		l := lay[a.tgt]
		return dataAccess{kind: accExact, addr: l.Addr, width: a.width, write: a.write, inSPM: l.InSPM}
	default: // symRange
		l := lay[a.tgt]
		return dataAccess{kind: accRange, lo: l.Addr, hi: l.Addr + c.objSize[a.tgt],
			width: a.width, write: a.write, inSPM: l.InSPM}
	}
}

// walkSym is costModel.blockCost replayed from the symbolic stream, with
// the constant part pre-folded (it never touches the MUST state, so folding
// preserves the walk's state evolution exactly). Its effect on s is exactly
// cacheAnalysis.transfer's, so the fixed point uses it as the transfer
// function and discards the cost.
func (c *Context) walkSym(cb *ctxBlock, cc cache.Config, lay []link.ObjLayout, spmSize uint32, s *mustState, counts *classCounts) int64 {
	total := cb.constCycles
	ownerL := lay[cb.owner]
	fetch := func(addr uint32) {
		if s.classifyRead(cc, addr) {
			counts.fetchHit++
			total += cache.HitCycles
		} else {
			counts.fetchMiss++
			total += cache.MissCycles
		}
	}
	accs := cb.accs
	for _, si := range cb.instrs {
		addr := ownerL.Addr + si.off
		if ownerL.InSPM {
			total += int64(si.size/2) * mem.SPMCycles
		} else {
			fetch(addr)
			if si.size == 4 {
				fetch(addr + 2)
			}
		}
		for _, a := range accs[:si.nacc] {
			da := c.resolve(a, lay, addr, spmSize)
			switch {
			case da.inSPM:
				total += mem.SPMCycles
			case cc.InstructionOnly:
				total += int64(mem.MainCost(da.width))
			case da.write:
				total += int64(mem.MainCost(da.width))
			case da.kind == accExact:
				if s.classifyRead(cc, da.addr) {
					counts.dataHit++
					total += cache.HitCycles
				} else {
					counts.dataMiss++
					total += cache.MissCycles
				}
			default:
				s.clobberRange(cc, da.lo, da.hi)
				counts.dataMiss++
				total += cache.MissCycles
			}
		}
		accs = accs[si.nacc:]
	}
	return total
}

// stateID interns a state's exact contents and returns its id (-1 for
// nil). Distinct cache sizes yield distinct backing lengths under a fixed
// shape, so ids never alias across capacities.
func (c *Context) stateID(s *mustState) int32 {
	if s == nil {
		return -1
	}
	buf := c.keyBuf[:0]
	for _, v := range s.data {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	c.keyBuf = buf
	if id, ok := c.stateIDs[string(buf)]; ok {
		return id
	}
	id := int32(len(c.stateIDs))
	c.stateIDs[string(buf)] = id
	return id
}

// funcKey is the exact input signature of one function's intra-procedural
// MUST solve: cache size, scratchpad size, the (address, side) layout of
// the function's footprint, its entry state and its callees' exit states.
// Raw values, no hashing — a collision would silently break bit-identity.
func (c *Context) funcKey(cf *ctxFunc, size, spmSize uint32, lay []link.ObjLayout, entryID int32, recs map[string]*mustRecord) string {
	buf := make([]byte, 0, 12+5*len(cf.footprint)+4*len(cf.callees))
	buf = binary.LittleEndian.AppendUint32(buf, size)
	buf = binary.LittleEndian.AppendUint32(buf, spmSize)
	for _, oi := range cf.footprint {
		l := lay[oi]
		buf = binary.LittleEndian.AppendUint32(buf, l.Addr)
		if l.InSPM {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(entryID))
	for _, callee := range cf.callees {
		var exit *mustState
		if cr := recs[callee]; cr != nil {
			exit = cr.exit
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.stateID(exit)))
	}
	return string(buf)
}

// runFunc computes one function's intra-procedural MUST fixed point given
// its entry state and its callees' current exit states, then walks every
// block's cost — the per-function slice of what cacheAnalysis.run and the
// cost model do globally. A nil entry means the interprocedural iteration
// never reached the function: every block is costed from the cold state,
// exactly as the cold path treats unreached blocks.
func (c *Context) runFunc(cf *ctxFunc, cc cache.Config, lay []link.ObjLayout, spmSize uint32, entry *mustState, recs map[string]*mustRecord, pool *statePool) (*mustRecord, error) {
	f := cf.f
	nb := len(f.Blocks)
	in := make([]*mustState, nb)
	var calleeIn map[string]*mustState
	var exit *mustState
	var discard classCounts // the fixed point's walks count nothing
	if entry != nil {
		in[f.Entry.Index] = pool.cloneOf(entry)
		work := []*cfg.Block{f.Entry}
		queued := make([]bool, nb)
		queued[f.Entry.Index] = true
		push := func(b *cfg.Block) {
			if !queued[b.Index] {
				queued[b.Index] = true
				work = append(work, b)
			}
		}
		steps := 0
		for len(work) > 0 {
			steps++
			if steps > 2_000_000 {
				return nil, fmt.Errorf("wcet: cache analysis did not converge")
			}
			b := work[0]
			work = work[1:]
			queued[b.Index] = false
			out := pool.cloneOf(in[b.Index])
			c.walkSym(cf.blocks[b.Index], cc, lay, spmSize, out, &discard)

			// Call at block end: record the state flowing into the callee and
			// splice the callee's current exit in (none yet: stop propagating
			// here; the interprocedural loop re-runs us once it appears).
			if len(b.Instrs) > 0 {
				if callee := b.Instrs[len(b.Instrs)-1].CallTarget; callee != "" {
					if calleeIn == nil {
						calleeIn = make(map[string]*mustState)
					}
					if prev := calleeIn[callee]; prev == nil {
						calleeIn[callee] = out.clone()
					} else {
						prev.join(out)
					}
					var ex *mustState
					if cr := recs[callee]; cr != nil {
						ex = cr.exit
					}
					pool.put(out)
					if ex == nil {
						continue
					}
					out = pool.cloneOf(ex)
				}
			}

			if len(b.Succs) == 0 {
				if exit == nil {
					exit = out.clone()
				} else {
					exit.join(out)
				}
				pool.put(out)
				continue
			}
			for _, e := range b.Succs {
				if prev := in[e.To.Index]; prev == nil {
					in[e.To.Index] = pool.cloneOf(out)
					push(e.To)
				} else if prev.join(out) {
					push(e.To)
				}
			}
			pool.put(out)
		}
	}

	rec := &mustRecord{exit: exit, calleeIn: calleeIn, cost: make([]int64, nb)}
	for _, b := range f.Blocks {
		var s *mustState
		if st := in[b.Index]; st != nil {
			s = pool.cloneOf(st)
		} else {
			s = pool.top()
		}
		rec.cost[b.Index] = c.walkSym(cf.blocks[b.Index], cc, lay, spmSize, s, &rec.counts)
		pool.put(s)
	}
	for _, st := range in {
		pool.put(st)
	}
	return rec, nil
}

// solveKey is the exact input of one function's IPET solve: its block costs
// then each callee's current bound, varint-encoded (the counts are fixed per
// function, so the encoding is unambiguous). The constraint skeleton is
// static and the solver deterministic, so equal keys imply equal solutions.
// The returned bytes alias the context's scratch buffer.
func (c *Context) solveKey(cf *ctxFunc) []byte {
	buf := c.keyBuf[:0]
	for _, v := range cf.cost {
		buf = binary.AppendVarint(buf, v)
	}
	for _, callee := range cf.callees {
		buf = binary.AppendUvarint(buf, c.funcs[callee].sol.wcet)
	}
	c.keyBuf = buf
	return buf
}

// solveFunc solves one function's IPET program under its current block
// costs and callee bounds, warm-started from the prepared tableau and —
// when a previous solution exists — seeded with its value under the new
// objective (the old worst-case path stays feasible, so its re-priced cost
// is achievable and prunes strictly-worse subtrees without affecting the
// result).
func (c *Context) solveFunc(cf *ctxFunc) (*funcSolution, error) {
	weight := append([]int64(nil), cf.cost...)
	for _, cs := range cf.f.Calls {
		weight[cs.Block.Index] += int64(c.funcs[cs.Callee].sol.wcet)
	}
	objv := append([]float64(nil), cf.ip.template...)
	for i, w := range weight {
		objv[i] = float64(w)
	}
	opt := ilp.Options{Root: cf.prep}
	if cf.sol != nil {
		seed := 0.0
		for i, x := range cf.sol.blocks {
			seed += objv[i] * float64(x)
		}
		for i, ev := range cf.ip.edges {
			seed += objv[ev.idx] * float64(cf.sol.edges[i])
		}
		opt.Incumbent, opt.HasIncumbent = seed, true
	}
	sol, err := cf.ip.solve(objv, opt)
	if err != nil {
		return nil, err
	}
	fs := &funcSolution{wcet: sol.wcet, blocks: sol.blocks, edges: make([]uint64, len(cf.ip.edges))}
	for i, ev := range cf.ip.edges {
		fs.edges[i] = sol.edges[ev.e]
	}
	return fs, nil
}

// rebuildWitness composes the adopted per-function solutions and the
// decomposition's access attribution into the whole-program witness,
// mirroring buildWitness exactly (the instruction walk is replaced by the
// per-block aggregates).
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
	access := func(name string) *AccessCounts {
		ac := w.ObjectAccesses[name]
		if ac == nil {
			ac = &AccessCounts{}
			w.ObjectAccesses[name] = ac
		}
		return ac
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
		for i, ev := range cf.ip.edges {
			e := ev.e
			ecs = append(ecs, EdgeCount{From: e.From.Index, To: e.To.Index, Taken: e.Taken, Count: cf.sol.edges[i] * runs})
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
			access(cb.b.Obj).Fetches += n * uint64(cb.fetchHW)
			for _, r := range cb.refs {
				access(c.objName[r.obj]).add(r.width, n*uint64(r.n))
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

// StateCounts returns the solution memo's hit/miss counters. Safe to call
// without blocking an in-flight analysis.
func (c *Context) StateCounts() (hits, misses uint64) {
	return c.stateHits.Load(), c.stateMisses.Load()
}

// FuncCounts reads the MUST re-analysis counters — functions whose fixed
// point re-ran vs functions in scope, both zero without a cache domain —
// without taking the context lock (which an in-flight analysis may hold for
// the length of a solve).
func (c *Context) FuncCounts() (reanalyzed, total uint64) {
	return c.funcsReanalyzed.Load(), c.funcsIn.Load()
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
