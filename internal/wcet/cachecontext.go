package wcet

import (
	"encoding/binary"
	"fmt"
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

// Cache-path incremental-analysis metrics, split from the scratchpad-path
// context counters so the two incremental machineries are distinguishable.
var (
	mCCtxBuilds = obs.Default.Counter("wcetlab_cache_context_builds_total",
		"Cache analysis contexts built from scratch (CFG + IPET skeletons + symbolic access streams).")
	mCCtxReuses = obs.Default.Counter("wcetlab_cache_context_reuses_total",
		"Cache analyses served by an existing cache context instead of a cold build.")
	mCCtxFuncsReanalyzed = obs.Default.Counter("wcetlab_cache_context_funcs_reanalyzed_total",
		"Functions whose MUST fixed point actually re-ran across cache-context analyses.")
	mCCtxFuncsTotal = obs.Default.Counter("wcetlab_cache_context_funcs_total",
		"Functions in scope across cache-context analyses (re-analyzed + reused).")
)

// CacheContextStats are one CacheContext's cumulative reuse counters.
type CacheContextStats struct {
	// Analyses is the number of Analyze calls served.
	Analyses uint64
	// FuncsReanalyzed / FuncsTotal: distinct functions whose
	// intra-procedural MUST solve actually ran at least once during an
	// analysis (re-entries of the interprocedural fixed point are one) vs
	// functions in scope, summed over analyses. A cold analysis re-runs
	// every function; a warm one re-runs only the functions whose layout
	// footprint, entry state or callee exits changed.
	FuncsReanalyzed uint64
	FuncsTotal      uint64
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
	tgt   int32 // symExact/symRange: target placement index
	imm   int32 // symLit: PC-relative literal offset
	width uint8
	write bool
}

// cacheSymInstr is one instruction of a block in layout-independent form.
type cacheSymInstr struct {
	off  uint32 // fetch offset within the owning object
	size uint32 // 2 or 4
	accs []symAcc
}

// cacheWitRef is one block's witness attribution for a group of identical
// data accesses: n accesses per block execution charged to witObj.
type cacheWitRef struct {
	witObj string
	width  uint8
	n      uint64
}

// cacheCtxBlock is one basic block's layout-independent decomposition for
// the cache path: the state-independent cycle constant, the symbolic fetch
// and data-access stream the MUST transfer and cost walk replay against a
// concrete layout, and the witness attribution.
type cacheCtxBlock struct {
	b        *cfg.Block
	ownerIdx int32
	// constCycles is the state-independent cycle sum (internal cycles and
	// unconditional-transfer penalties); interleaving it with the stateful
	// access costs is unnecessary because it never touches the MUST state.
	constCycles int64
	instrs      []cacheSymInstr
	fetchHW     int64
	refs        []cacheWitRef
}

// classCounts are the classification counter deltas of one function's cost
// walk (the statistics Result surfaces).
type classCounts struct {
	fetchHit, fetchMiss, dataHit, dataMiss int
}

// cacheFuncRecord is one converged intra-procedural MUST solve of a
// function under an exact input signature: its exit state, the entry state
// its call blocks feed each callee, its per-block cycle costs and its
// classification counts. Records are immutable once built; reusing one is
// bit-identical to re-running the solve.
type cacheFuncRecord struct {
	exit     *mustState            // nil: no return block reached
	calleeIn map[string]*mustState // per callee: join over reached call blocks
	cost     []int64               // per block, by cfg Index
	counts   classCounts
}

// cacheCtxFunc is one function's reusable cache-path machinery.
type cacheCtxFunc struct {
	f      *cfg.Function
	ip     *ipetProgram
	prep   *lp.Prepared
	blocks []*cacheCtxBlock // by cfg block Index
	// footprint lists the placement indices whose layout the function's
	// transfer and cost walks read (block owners and hinted access targets),
	// sorted; callees/callers its sorted distinct call-graph neighbours.
	footprint []int32
	callees   []string
	callers   []string
	// memo records converged MUST solves by exact input signature; cur is
	// the record the latest analysis adopted.
	memo map[string]*cacheFuncRecord
	cur  *cacheFuncRecord
	// solMemo records IPET solutions by cost signature; sol/wcet/curSig the
	// latest adopted solution.
	solMemo map[string]*ipetSolution
	sol     *ipetSolution
	curSig  string
	wcet    uint64
}

// cacheMemoCap bounds the per-function memo maps. Serving processes see a
// bounded set of layouts × capacities, so the cap only guards pathological
// drift; eviction is arbitrary because the memo affects work done, never
// results.
const cacheMemoCap = 512

func putCapped[V any](m map[string]V, k string, v V) {
	if len(m) >= cacheMemoCap {
		for old := range m {
			delete(m, old)
			break
		}
	}
	m[k] = v
}

// CacheContext is the cache-path analogue of Context: everything about
// analysing one program under one cache *shape* (line size, associativity,
// instruction-only) that does not depend on the placement or the cache
// capacity — CFG, topological order, per-function IPET skeletons, and
// layout-independent symbolic access streams — built once and replayed per
// (capacity, placement).
//
// MUST facts are made layout-stable by keying every function's converged
// intra-procedural solve on exactly the inputs it reads: the cache size,
// the (address, side) layout of the function's object footprint, its entry
// state and its callees' exit states. Between two placements, the
// link.Layout address walk names the moved objects; functions whose
// footprint is layout-stable and whose entry/callee-exit states are
// unchanged hit the memo and keep their per-block classifications verbatim
// — only functions touching moved objects, plus transitive callers and
// callees through changed states, re-enter the fixed point. The fixed
// point is the unique MFP of a monotone equation system, so recomputing
// affected functions from their current inputs is bit-identical to a cold
// whole-program run (this subsumes per-block transfer memoization: a
// function-level memo hit skips every block transfer inside it).
//
// All methods are safe for concurrent use; analyses on one context
// serialise.
type CacheContext struct {
	mu      sync.Mutex
	base    *link.Executable // base link: spmSize 0, nothing placed
	g       *cfg.Graph
	order   []string // callees-first
	root    string
	stackLo uint32
	shape   cache.Config // Size zeroed; set per Analyze

	objIdx  map[string]int32
	objName []string
	objSize []uint32
	funcs   map[string]*cacheCtxFunc

	// stateIDs interns abstract states: identical contents share one id.
	// Ids are never recycled — signatures built from them stay valid for
	// the context's lifetime (reuse would alias distinct states and break
	// bit-identity).
	stateIDs map[string]int32
	keyBuf   []byte

	// lay/laySize/laySpm describe the last completed analysis; an analysis
	// with the same size and an identical layout reuses every record
	// without touching the fixed point.
	lay     []link.ObjLayout
	laySize uint32
	laySpm  uint32

	pools map[uint32]*statePool // per cache size (geometry)

	stats CacheContextStats
	// Atomic mirrors so stats readers never block on an in-flight analysis.
	funcsReanalyzed, funcsIn atomic.Uint64
}

// NewCacheContext builds the reusable cache-path analysis context for the
// program behind the given base executable, which must be linked without a
// scratchpad (spmSize 0): the symbolic access streams are anchored to its
// layout. opts.Cache supplies the cache shape — its Size is ignored and
// chosen per Analyze, so one context serves a whole capacity sweep.
func NewCacheContext(base *link.Executable, opts Options) (*CacheContext, error) {
	if opts.Cache == nil {
		return nil, fmt.Errorf("wcet: cache context needs a cache configuration")
	}
	if base.SPMSize != 0 {
		return nil, fmt.Errorf("wcet: cache context needs a scratchpad-less base link")
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
	shape := opts.Cache.WithDefaults()
	shape.Size = 0

	c := &CacheContext{
		base: base, g: g, order: order, root: root,
		stackLo: stackLo, shape: shape,
		objIdx:   make(map[string]int32, len(base.Placements)),
		objName:  make([]string, len(base.Placements)),
		objSize:  make([]uint32, len(base.Placements)),
		funcs:    make(map[string]*cacheCtxFunc, len(order)),
		stateIDs: make(map[string]int32),
		pools:    make(map[uint32]*statePool),
	}
	for i, pl := range base.Placements {
		c.objIdx[pl.Obj.Name] = int32(i)
		c.objName[i] = pl.Obj.Name
		c.objSize[i] = pl.Obj.Size()
	}
	for _, name := range order {
		f := g.Funcs[name]
		ip, err := newIPETProgram(f)
		if err != nil {
			return nil, err
		}
		cf := &cacheCtxFunc{
			f: f, ip: ip,
			prep:    lp.Prepare(&lp.Problem{NumVars: ip.n, Cons: ip.cons}),
			blocks:  make([]*cacheCtxBlock, len(f.Blocks)),
			memo:    make(map[string]*cacheFuncRecord),
			solMemo: make(map[string]*ipetSolution),
		}
		footSet := make(map[int32]bool)
		for _, b := range f.Blocks {
			cb, err := c.decomposeCache(f, b, footSet)
			if err != nil {
				return nil, err
			}
			cf.blocks[b.Index] = cb
		}
		foot := make([]int32, 0, len(footSet))
		for oi := range footSet {
			foot = append(foot, oi)
		}
		for i := 1; i < len(foot); i++ { // insertion sort: footprints are tiny
			for j := i; j > 0 && foot[j] < foot[j-1]; j-- {
				foot[j], foot[j-1] = foot[j-1], foot[j]
			}
		}
		cf.footprint = foot
		calleeSet := make(map[string]bool)
		for _, cs := range f.Calls {
			calleeSet[cs.Callee] = true
		}
		cf.callees = sortedNames(calleeSet)
		c.funcs[name] = cf
	}
	callerSets := make(map[string]map[string]bool, len(order))
	for _, name := range order {
		for _, callee := range c.funcs[name].callees {
			if callerSets[callee] == nil {
				callerSets[callee] = make(map[string]bool)
			}
			callerSets[callee][name] = true
		}
	}
	for _, name := range order {
		c.funcs[name].callers = sortedNames(callerSets[name])
	}
	mCCtxBuilds.Inc()
	return c, nil
}

// decomposeCache walks one block's instructions once against the base
// layout, splitting its cost into the state-independent constant and the
// symbolic access stream, and pre-computing the witness attribution —
// mirroring costModel.blockCost, instrAccesses and Witness.addAccesses.
// Access-metadata violations surface here, once, instead of per analysis.
func (c *CacheContext) decomposeCache(f *cfg.Function, b *cfg.Block, foot map[int32]bool) (*cacheCtxBlock, error) {
	ownerIdx, ok := c.objIdx[b.Obj]
	if !ok {
		return nil, fmt.Errorf("wcet: %s: block object %q not placed", f.Name, b.Obj)
	}
	cb := &cacheCtxBlock{b: b, ownerIdx: ownerIdx}
	foot[ownerIdx] = true
	ownerBase := c.base.Placements[ownerIdx].Addr
	type witKey struct {
		obj   string
		width uint8
	}
	witAgg := make(map[witKey]uint64)
	var witOrder []witKey
	for _, ci := range b.Instrs {
		si := cacheSymInstr{off: ci.Addr - ownerBase, size: ci.Size}
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
		si.accs = accs
		for _, a := range si.accs {
			var wobj string
			switch a.kind {
			case symStack:
				continue // stack region: not an allocatable object
			case symLit:
				// The literal pool travels with the owning object.
				wobj = c.objName[ownerIdx]
			default:
				wobj = c.objName[a.tgt]
			}
			k := witKey{obj: wobj, width: a.width}
			if _, seen := witAgg[k]; !seen {
				witOrder = append(witOrder, k)
			}
			witAgg[k]++
		}
		cb.instrs = append(cb.instrs, si)
	}
	for _, k := range witOrder {
		cb.refs = append(cb.refs, cacheWitRef{witObj: k.obj, width: k.width, n: witAgg[k]})
	}
	return cb, nil
}

// symAccesses is instrAccesses in symbolic form: the same case analysis,
// but classifying each access as (kind, object) rather than materialising
// addresses, which resolve() re-derives per layout.
func (c *CacheContext) symAccesses(ci cfg.Instr) ([]symAcc, error) {
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

// resolve materialises one symbolic access against a layout, reproducing
// instrAccesses exactly. instrAddr is the access's instruction address
// under the layout (needed for PC-relative literals only).
func (c *CacheContext) resolve(a symAcc, lay []link.ObjLayout, instrAddr, spmSize uint32) dataAccess {
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

// transferSym is cacheAnalysis.transfer replayed from the symbolic stream.
func (c *CacheContext) transferSym(cb *cacheCtxBlock, cc cache.Config, lay []link.ObjLayout, spmSize uint32, s *mustState) {
	ownerL := lay[cb.ownerIdx]
	for _, si := range cb.instrs {
		addr := ownerL.Addr + si.off
		if !ownerL.InSPM {
			s.classifyRead(cc, addr)
			if si.size == 4 {
				s.classifyRead(cc, addr+2)
			}
		}
		for _, a := range si.accs {
			da := c.resolve(a, lay, addr, spmSize)
			if da.inSPM || da.write || cc.InstructionOnly {
				continue
			}
			if da.kind == accExact {
				s.classifyRead(cc, da.addr)
			} else {
				s.clobberRange(cc, da.lo, da.hi)
			}
		}
	}
}

// costWalkSym is costModel.blockCost replayed from the symbolic stream,
// with the constant part pre-folded (it never touches the MUST state, so
// folding preserves the walk's state evolution exactly).
func (c *CacheContext) costWalkSym(cb *cacheCtxBlock, cc cache.Config, lay []link.ObjLayout, spmSize uint32, s *mustState, counts *classCounts) int64 {
	total := cb.constCycles
	ownerL := lay[cb.ownerIdx]
	fetch := func(addr uint32) {
		if s.classifyRead(cc, addr) {
			counts.fetchHit++
			total += cache.HitCycles
		} else {
			counts.fetchMiss++
			total += cache.MissCycles
		}
	}
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
		for _, a := range si.accs {
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
	}
	return total
}

// stateID interns a state's exact contents and returns its id (-1 for
// nil). Distinct cache sizes yield distinct backing lengths under a fixed
// shape, so ids never alias across capacities.
func (c *CacheContext) stateID(s *mustState) int32 {
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
func (c *CacheContext) funcKey(cf *cacheCtxFunc, size, spmSize uint32, lay []link.ObjLayout, entryID int32, recs map[string]*cacheFuncRecord) string {
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
func (c *CacheContext) runFunc(cf *cacheCtxFunc, cc cache.Config, lay []link.ObjLayout, spmSize uint32, entry *mustState, recs map[string]*cacheFuncRecord, pool *statePool) (*cacheFuncRecord, error) {
	f := cf.f
	nb := len(f.Blocks)
	in := make([]*mustState, nb)
	var calleeIn map[string]*mustState
	var exit *mustState
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
			c.transferSym(cf.blocks[b.Index], cc, lay, spmSize, out)

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
					if ex == nil {
						pool.put(out)
						continue
					}
					pool.put(out)
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

	rec := &cacheFuncRecord{exit: exit, calleeIn: calleeIn, cost: make([]int64, nb)}
	for _, b := range f.Blocks {
		var s *mustState
		if st := in[b.Index]; st != nil {
			s = pool.cloneOf(st)
		} else {
			s = pool.top()
		}
		rec.cost[b.Index] = c.costWalkSym(cf.blocks[b.Index], cc, lay, spmSize, s, &rec.counts)
		pool.put(s)
	}
	for _, st := range in {
		pool.put(st)
	}
	return rec, nil
}

// Analyze computes the WCET bound of the program under the given cache
// capacity, scratchpad capacity and placement. The result — bound,
// per-function bounds, witness and classification counts — is bit-identical
// to
//
//	wcet.Analyze(link.Link(prog, spmSize, inSPM), opts)
//
// with opts.Cache.Size = cacheSize, for the options the context was built
// with.
func (c *CacheContext) Analyze(cacheSize, spmSize uint32, inSPM map[string]bool, witness bool) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	// Link-identical error precedence: the layout walk first (the cold path
	// links before analysing), then the full cache validation.
	lay, err := link.Layout(c.base.Prog, spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	cc := c.shape
	cc.Size = cacheSize
	if err := cc.Validate(); err != nil {
		return nil, err
	}

	if c.stats.Analyses > 0 {
		mCCtxReuses.Inc()
	}
	c.stats.Analyses++

	pool := c.pools[cacheSize]
	if pool == nil {
		pool = newStatePool(cc)
		c.pools[cacheSize] = pool
	}

	// Layout-stable fast path: no object moved and the capacities are
	// unchanged, so every function's record is verbatim valid.
	stable := c.lay != nil && cacheSize == c.laySize && spmSize == c.laySpm &&
		len(link.MovedObjects(c.lay, lay)) == 0

	// reranSet collects the distinct functions whose MUST solve ran this
	// analysis: the incremental savings metric (fixed-point re-entries of
	// the same function are an implementation detail, not extra staleness).
	reranSet := make(map[string]bool)
	if !stable {
		// Interprocedural chaotic iteration at function granularity,
		// callers-first so entry states propagate downward early. Entry
		// states are the join over callers' recorded contributions; exit
		// changes wake callers, record changes wake callees. Converges to
		// the same unique MFP as the cold block-level iteration.
		recs := make(map[string]*cacheFuncRecord, len(c.order))
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
				return nil, fmt.Errorf("wcet: cache analysis did not converge")
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

			key := c.funcKey(cf, cacheSize, spmSize, lay, c.stateID(entry), recs)
			rec := cf.memo[key]
			if rec == nil {
				rec, err = c.runFunc(cf, cc, lay, spmSize, entry, recs, pool)
				if err != nil {
					pool.put(entry)
					return nil, err
				}
				putCapped(cf.memo, key, rec)
				reranSet[name] = true
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
			c.funcs[name].cur = recs[name]
		}
	}

	reran := uint64(len(reranSet))
	c.stats.FuncsReanalyzed += reran
	c.stats.FuncsTotal += uint64(len(c.order))
	c.funcsReanalyzed.Add(reran)
	c.funcsIn.Add(uint64(len(c.order)))
	mCCtxFuncsReanalyzed.Add(reran)
	mCCtxFuncsTotal.Add(uint64(len(c.order)))

	// Path analysis: per-function IPET over the recorded block costs,
	// callees-first. An unchanged cost signature keeps (or re-adopts) the
	// recorded solution; otherwise re-solve warm-started from the prepared
	// tableau and the previous solution's value under the new objective.
	res := &Result{PerFunction: make(map[string]uint64, len(c.order))}
	for _, name := range c.order {
		cf := c.funcs[name]
		rec := cf.cur
		res.FetchAlwaysHit += rec.counts.fetchHit
		res.FetchUnclassified += rec.counts.fetchMiss
		res.DataAlwaysHit += rec.counts.dataHit
		res.DataUnclassified += rec.counts.dataMiss

		sig := make([]byte, 0, 8*(len(rec.cost)+len(cf.callees)))
		for _, v := range rec.cost {
			sig = binary.LittleEndian.AppendUint64(sig, uint64(v))
		}
		for _, callee := range cf.callees {
			sig = binary.LittleEndian.AppendUint64(sig, c.funcs[callee].wcet)
		}
		s := string(sig)
		switch {
		case cf.sol != nil && s == cf.curSig:
			// Unchanged objective: the solution stands.
		case cf.solMemo[s] != nil:
			sol := cf.solMemo[s]
			cf.sol, cf.wcet, cf.curSig = sol, sol.wcet, s
		default:
			if err := c.solveCacheFunc(cf, rec); err != nil {
				return nil, err
			}
			cf.curSig = s
			putCapped(cf.solMemo, s, cf.sol)
		}
		res.PerFunction[name] = cf.wcet
	}
	res.WCET = res.PerFunction[c.root]
	if witness {
		res.Witness = c.rebuildCacheWitness()
	}

	c.lay, c.laySize, c.laySpm = lay, cacheSize, spmSize
	return res, nil
}

// solveCacheFunc re-solves one function's IPET program under its recorded
// block costs and current callee bounds, warm-started exactly like the
// scratchpad context's solveFunc (the previous worst-case path stays
// feasible, so its re-priced value is a sound incumbent).
func (c *CacheContext) solveCacheFunc(cf *cacheCtxFunc, rec *cacheFuncRecord) error {
	callExtra := make(map[*cfg.Block]int64)
	for _, cs := range cf.f.Calls {
		callExtra[cs.Block] += int64(c.funcs[cs.Callee].wcet)
	}
	objv := append([]float64(nil), cf.ip.template...)
	for _, b := range cf.f.Blocks {
		objv[b.Index] = float64(rec.cost[b.Index] + callExtra[b])
	}
	opt := ilp.Options{Root: cf.prep}
	if cf.sol != nil {
		seed := 0.0
		for _, b := range cf.f.Blocks {
			seed += objv[b.Index] * float64(cf.sol.blocks[b.Index])
		}
		for _, ev := range cf.ip.edges {
			seed += objv[ev.idx] * float64(cf.sol.edges[ev.e])
		}
		opt.Incumbent, opt.HasIncumbent = seed, true
	}
	sol, err := cf.ip.solve(objv, opt)
	if err != nil {
		return err
	}
	cf.sol, cf.wcet = sol, sol.wcet
	return nil
}

// rebuildCacheWitness composes the per-function solutions and the
// pre-computed access attribution into the whole-program witness, mirroring
// buildWitness (and Context.rebuildWitness) exactly.
func (c *CacheContext) rebuildCacheWitness() *Witness {
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
				tac := w.ObjectAccesses[r.witObj]
				if tac == nil {
					tac = &AccessCounts{}
					w.ObjectAccesses[r.witObj] = tac
				}
				tac.add(r.width, n*r.n)
			}
		}
	}
	return w
}

// Root reports the analysis root the context was built for.
func (c *CacheContext) Root() string { return c.root }

// Stats returns the context's cumulative reuse counters.
func (c *CacheContext) Stats() CacheContextStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// FuncCounts reads the re-analysis counters without taking the context
// lock (which an in-flight analysis may hold for the length of a solve).
func (c *CacheContext) FuncCounts() (reanalyzed, total uint64) {
	return c.funcsReanalyzed.Load(), c.funcsIn.Load()
}
