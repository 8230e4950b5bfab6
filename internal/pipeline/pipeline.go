// Package pipeline is the staged measurement pipeline behind every
// experiment in the repository. An immutable compiled program flows through
// memoized stages —
//
//	Link(placement)            → Executable
//	Simulate(placement, cache) → simulation result (run, or priced from the profile)
//	Analyze(placement, opts)   → WCET bound (+ witness)
//	Profile()                  → typical-input access profile
//	Allocate(policy, capacity) → scratchpad allocation
//
// — each keyed by a canonical placement/configuration key, so within one
// Pipeline no identical link, simulation, WCET analysis or allocation
// solve ever runs twice. The sweeps in internal/core and the fixpoint loop
// of the allocation engine (internal/alloc) share one Pipeline per
// benchmark and therefore share artifacts: the capacity-independent
// empty-scratchpad analysis is computed once per program (not once per
// swept size), and the energy-seed analysis the fixpoint starts from is
// the same artifact the measurement layer reports.
//
// # Cache tiers
//
// Lookups go memory → disk → compute. The memory tier is this package's
// per-pipeline maps. The disk tier is optional: SetStore attaches a
// content-addressed store (internal/store) shared across processes, keyed
// by hash(program content, stage key), and the simulate/analyse/profile
// stages then consult it before computing and write back after — a warm
// store serves a whole sweep with zero recomputation. Links are not
// persisted: a link is only ever needed as the input of a cold simulation
// or analysis, so with a warm store it never runs at all. Stats splits the
// tiers: *Hits are memory hits, *DiskHits/*DiskMisses count store lookups,
// and runs (Links, Sims, Analyses, Profiles, Allocs) are cold executions.
//
// A simulation that misses both tiers is computed one of three ways. A
// cache-less placement at whole-object granularity is derived from the
// profile (sim.Derive): the profiled run's cycles minus the scratchpad
// saving of each resident object, counted in Stats.SimsDerived.
// Derivation is exact only while the program's behaviour does not depend
// on its layout, so the first non-empty placement a pipeline derives is
// also simulated for real (concurrent requests wait for it). On a mismatch
// the pipeline counts one Stats.SimDeriveFallbacks and serves real runs
// from then on. A valid direct-mapped cache configuration is read off the
// placement's cache ladder for its line size and kind (sim.RunLadder): one
// cache-less run that prices every capacity, exact by construction since
// the executable is the same at every size. The request that finds no
// ladder runs it; every other size counts in Stats.SimsDerived. Every
// other simulation (a set-associative cache, or a cache-less split
// partition) runs the simulator. Derived results are memoized and
// persisted like real ones.
//
// # Keying scheme
//
// A placement key is "spm=<size>|<name>,<name>,..." with the scratchpad
// residents sorted by name. A placement with no residents is normalised to
// size 0, because the linked addresses, the simulation and the analysis of
// an empty scratchpad are independent of its capacity. Simulation keys
// append the cache configuration ("|cache=<size>/<line>/<assoc>/<kind>"),
// analysis keys append the cache configuration, stack bound and analysis
// root, allocation keys are the policy's ConfigKey plus the capacity. The
// witness flag is deliberately *not* part of the analysis key (in either
// tier): a witness-bearing result answers witness-less requests for the
// same configuration (the bound is identical); a witness-less cached
// result is upgraded in place when a witness is first requested — and the
// disk entry overwritten — with Stats counting the upgrade.
//
// # Concurrency
//
// All stages are safe for concurrent use. Each cache entry is computed
// exactly once under a per-entry lock (duplicate concurrent requests block
// on the first computation instead of repeating it), so parallel sweeps
// over capacities and benchmarks get the same hit rates as sequential
// ones. The disk tier inherits the store's process-level guarantees:
// atomic installs, last-write-wins on races, corruption read as a miss.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wcet"
)

// Allocation is the shared result type of every scratchpad allocator: the
// allocation engine (internal/alloc) returns it from its knapsack solvers
// and converts its WCET-directed fixpoint results to it.
type Allocation struct {
	// InSPM names the objects placed in the scratchpad. Under a non-empty
	// Splits partition the names refer to the split program's objects
	// (fragments included).
	InSPM map[string]bool
	// Benefit is the total benefit in the allocator's objective (nJ per
	// program run for the energy knapsack, worst-case cycles saved for
	// the WCET-directed allocator).
	Benefit float64
	// Used is the number of scratchpad bytes occupied (ignoring alignment
	// padding, which the linker re-checks).
	Used uint32
	// Splits is the placement-unit partition the allocation is relative to:
	// the hot regions outlined into independently placeable fragments.
	// Empty means whole-object granularity. Measure the allocation with the
	// *Units stage variants, passing this partition.
	Splits []obj.Region
	// Iterations and Converged describe the solve for iterative policies
	// (the WCET-directed fixpoint: accepted steps including the baseline, and
	// whether it reached a fixpoint before its cap). Single-shot knapsack
	// policies leave them zero.
	Iterations int
	Converged  bool
}

// Allocator is the common interface of the scratchpad allocators: given
// the pipeline holding the compiled program (and, memoized, its profile
// and analysis artifacts), choose the objects to place at one capacity.
// internal/alloc's EnergyAllocator and Directed implement it.
// The context carries the request's trace (and cancellation, which the
// stages an allocator calls back into respect).
type Allocator interface {
	// Name identifies the allocation policy ("energy", "wcet").
	Name() string
	// ConfigKey canonically identifies the policy's *full* configuration
	// (objective parameters, iteration caps, seed policies, ...), so
	// Pipeline.Allocate can memoize solves across repeated sweeps. A
	// policy whose configuration cannot be captured returns "" and runs
	// unmemoized.
	ConfigKey() string
	Allocate(ctx context.Context, p *Pipeline, capacity uint32) (*Allocation, error)
}

// Stats counts stage executions and cache hits per tier. Runs (Links,
// Sims, Analyses, Profiles, Allocs) are cold executions; *Hits are
// requests served from the memory tier; *DiskHits/*DiskMisses count disk
// lookups by memory misses when a store is attached (a disk miss always
// pairs with a run, or for a simulation with a run or a derivation).
// AnalyzeUpgrades counts re-runs of an already-analysed configuration to
// attach a witness — the only way a configuration is ever analysed twice.
// The *Time fields accumulate wall clock spent in cold stage executions (a
// derived simulation adds nothing); AllocTime is the allocators' wall
// clock and includes the nested stage computations a solve triggers (e.g.
// the WCET-directed fixpoint's analyses), so it is not disjoint from
// AnalyzeTime.
//
// Stats is a projection: Pipeline.Stats builds it from the pipeline's
// per-stage counters, each of which also moves its wcetlab_stage_* (or
// wcetlab_analyze_witness_upgrades_total, wcetlab_store_write_errors_total,
// wcetlab_sim_derived_total, wcetlab_sim_derive_fallbacks_total) series in
// the same call, and from the ContextStats of the pipeline's
// analysis contexts, which write through to the wcetlab_context_*,
// wcetlab_cache_context_* and wcetlab_solver_state_* series.
type Stats struct {
	Links, LinkHits       uint64
	Sims, SimHits         uint64
	Analyses, AnalyzeHits uint64
	AnalyzeUpgrades       uint64
	Profiles, ProfileHits uint64
	Allocs, AllocHits     uint64

	// SimsDerived counts simulations not run: cache-less placements priced
	// from the profile, and direct-mapped cache sizes read off a ladder
	// another size of the same placement, line size and kind ran (Sims
	// counts real runs only: the exactness check and each ladder run among
	// them). SimDeriveFallbacks counts checks that mismatched, after which
	// the pipeline derives no cache-less placement more.
	SimsDerived, SimDeriveFallbacks uint64

	// ContextBuilds counts reusable analysis contexts without a cache
	// domain built (cold: CFG + IPET skeletons + block decomposition);
	// ContextReuses counts the analyses each such context served after its
	// first. An analysis the context rejects (a placement that does not
	// link) is not a reuse.
	ContextBuilds, ContextReuses uint64

	// CacheContextBuilds / CacheContextReuses are the same split for
	// contexts with a cache domain. CacheFuncsReanalyzed / CacheFuncs split
	// their function-level MUST fixed point: distinct functions whose solve
	// re-ran vs functions in scope across all cache-domain analyses.
	// MustSolves / MustMemoHits split its steps: intra-procedural solves
	// run vs served from the per-function memo.
	CacheContextBuilds, CacheContextReuses uint64
	CacheFuncsReanalyzed, CacheFuncs       uint64
	MustSolves, MustMemoHits               uint64

	// FullLinks, DeltaLinks, RelocsResolved and RelocsReused are frozen:
	// they remain only because the wcetbench harness (a separate module
	// whose source is pinned with its benchmark definition) still reads
	// them. Every link is a full link, so FullLinks always equals Links and
	// the other three are always zero.
	FullLinks, DeltaLinks        uint64
	RelocsResolved, RelocsReused uint64

	// SolverStateHits / SolverStateMisses: per-function IPET solves served
	// from an analysis context's in-process solution memo vs solves that
	// had to run, with and without a cache domain.
	SolverStateHits, SolverStateMisses uint64

	SimDiskHits, SimDiskMisses         uint64
	AnalyzeDiskHits, AnalyzeDiskMisses uint64
	ProfileDiskHits, ProfileDiskMisses uint64
	AllocDiskHits, AllocDiskMisses     uint64
	// StoreErrors counts failed best-effort store writes; the computed
	// artifact is still returned to the caller.
	StoreErrors uint64

	LinkTime, SimTime, AnalyzeTime, ProfileTime, AllocTime time.Duration
}

// DiskHits is the total of stage requests served from the disk tier.
func (s Stats) DiskHits() uint64 {
	return s.SimDiskHits + s.AnalyzeDiskHits + s.ProfileDiskHits + s.AllocDiskHits
}

// DiskMisses is the total of disk lookups that fell through to compute.
func (s Stats) DiskMisses() uint64 {
	return s.SimDiskMisses + s.AnalyzeDiskMisses + s.ProfileDiskMisses + s.AllocDiskMisses
}

// Add accumulates another snapshot into s (aggregating across pipelines).
func (s *Stats) Add(o Stats) {
	s.Links += o.Links
	s.LinkHits += o.LinkHits
	s.Sims += o.Sims
	s.SimHits += o.SimHits
	s.SimsDerived += o.SimsDerived
	s.SimDeriveFallbacks += o.SimDeriveFallbacks
	s.Analyses += o.Analyses
	s.AnalyzeHits += o.AnalyzeHits
	s.AnalyzeUpgrades += o.AnalyzeUpgrades
	s.Profiles += o.Profiles
	s.ProfileHits += o.ProfileHits
	s.Allocs += o.Allocs
	s.AllocHits += o.AllocHits
	s.ContextBuilds += o.ContextBuilds
	s.ContextReuses += o.ContextReuses
	s.CacheContextBuilds += o.CacheContextBuilds
	s.CacheContextReuses += o.CacheContextReuses
	s.CacheFuncsReanalyzed += o.CacheFuncsReanalyzed
	s.CacheFuncs += o.CacheFuncs
	s.MustSolves += o.MustSolves
	s.MustMemoHits += o.MustMemoHits
	s.FullLinks += o.FullLinks
	s.SolverStateHits += o.SolverStateHits
	s.SolverStateMisses += o.SolverStateMisses
	s.SimDiskHits += o.SimDiskHits
	s.SimDiskMisses += o.SimDiskMisses
	s.AnalyzeDiskHits += o.AnalyzeDiskHits
	s.AnalyzeDiskMisses += o.AnalyzeDiskMisses
	s.ProfileDiskHits += o.ProfileDiskHits
	s.ProfileDiskMisses += o.ProfileDiskMisses
	s.AllocDiskHits += o.AllocDiskHits
	s.AllocDiskMisses += o.AllocDiskMisses
	s.StoreErrors += o.StoreErrors
	s.LinkTime += o.LinkTime
	s.SimTime += o.SimTime
	s.AnalyzeTime += o.AnalyzeTime
	s.ProfileTime += o.ProfileTime
	s.AllocTime += o.AllocTime
}

// Pipeline memoizes the link/simulate/analyze/profile/allocate stages for
// one immutable compiled program.
type Pipeline struct {
	// Prog is the compiled program; it must not be mutated once the
	// pipeline is constructed.
	Prog *obj.Program

	mu       sync.Mutex
	disk     *store.Store
	splits   map[string]*entry[*obj.Program]
	links    map[string]*entry[*link.Executable]
	sims     map[string]*entry[*sim.Result]
	ladders  map[string]*entry[*sim.CacheLadder] // by placement, line size and kind
	analyses map[string]*analysisEntry
	contexts map[string]*entry[*wcet.Context]
	allocs   map[string]*entry[*Allocation]
	profile  *entry[*sim.Profile]
	// ctxList registers successfully built analysis contexts; Stats derives
	// the context counters from their lock-free ContextStats without
	// touching entry locks (which an in-flight compute may hold).
	ctxList []*wcet.Context

	bench  string
	counts counters
	guard  deriveGuard

	progOnce sync.Once
	progKey  string
}

// stage is one stage's counter set: cold runs, lookups per cache tier and
// the wall clock of cold runs. Every count writes through to the stage's
// series in the process-wide registry, so Stats and the registry are two
// views of one record.
type stage struct {
	name         string
	runs         *obs.Tally
	memory, disk lookups
	seconds      *obs.Histogram
	nanos        atomic.Int64
}

// lookups are one cache tier's hits and misses.
type lookups struct{ hits, misses *obs.Tally }

func (l lookups) count(hit bool) {
	if hit {
		l.hits.Inc()
	} else {
		l.misses.Inc()
	}
}

func newStage(name, bench string) *stage {
	tier := func(tier string) lookups {
		result := func(result string) *obs.Tally {
			return obs.NewTally(obs.Default.Counter("wcetlab_stage_cache_total",
				"Pipeline stage cache lookups by tier and result.",
				"stage", name, "tier", tier, "result", result, "bench", bench))
		}
		return lookups{result("hit"), result("miss")}
	}
	return &stage{
		name: name,
		runs: obs.NewTally(obs.Default.Counter("wcetlab_stage_runs_total",
			"Cold pipeline stage executions.", "stage", name, "bench", bench)),
		memory: tier("memory"),
		disk:   tier("disk"),
		seconds: obs.Default.Histogram("wcetlab_stage_seconds",
			"Wall clock per cold pipeline stage execution.", nil,
			"stage", name, "bench", bench),
	}
}

// read returns the stage's figures as Stats holds them: cold runs, memory
// hits, disk hits and misses, and the summed wall clock of cold runs.
func (s *stage) read() (runs, memHits, diskHits, diskMisses uint64, d time.Duration) {
	return s.runs.Value(), s.memory.hits.Value(), s.disk.hits.Value(), s.disk.misses.Value(),
		time.Duration(s.nanos.Load())
}

// counters are a pipeline's counters; Stats is built from them.
type counters struct {
	link, sim, analyze, profile, alloc *stage
	upgrades, storeErrors              *obs.Tally
	derived, fallbacks                 *obs.Tally
}

func newCounters(bench string) counters {
	return counters{
		link:    newStage("link", bench),
		sim:     newStage("simulate", bench),
		analyze: newStage("analyze", bench),
		profile: newStage("profile", bench),
		alloc:   newStage("alloc", bench),
		upgrades: obs.NewTally(obs.Default.Counter("wcetlab_analyze_witness_upgrades_total",
			"Re-analyses of a cached configuration to attach a witness.", "bench", bench)),
		storeErrors: obs.NewTally(obs.Default.Counter("wcetlab_store_write_errors_total",
			"Failed best-effort artifact store writes.", "bench", bench)),
		derived: obs.NewTally(obs.Default.Counter("wcetlab_sim_derived_total",
			"Simulations priced from the profile instead of run.", "bench", bench)),
		fallbacks: obs.NewTally(obs.Default.Counter("wcetlab_sim_derive_fallbacks_total",
			"Derived simulations that mismatched their real run; derivation stops.", "bench", bench)),
	}
}

// deriveGuard is the exactness check behind derived simulations: the
// first non-empty placement derived is compared with a real run.
type deriveGuard struct {
	mu    sync.Mutex // held through the check run
	state atomic.Int32
}

const (
	guardUnchecked int32 = iota
	guardExact           // the check matched: derive
	guardOff             // the check mismatched: run everything for real
)

// entry is a singleflight cache slot: the first getter computes under the
// entry lock, later getters (and concurrent ones, after blocking) reuse.
type entry[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
	err  error
}

func (e *entry[T]) get(compute func() (T, error)) (T, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		e.val, e.err = compute()
		e.done = true
	}
	return e.val, e.err
}

// analysisEntry additionally supports the witness upgrade.
type analysisEntry struct {
	mu   sync.Mutex
	done bool
	res  *wcet.Result
	err  error
}

// New builds an empty pipeline around a compiled program. Its metrics
// carry an empty bench label; prefer NewNamed where the benchmark is
// known.
func New(prog *obj.Program) *Pipeline {
	return NewNamed(prog, "")
}

// NewNamed builds an empty pipeline around a compiled program, labelling
// its metrics with the benchmark name.
func NewNamed(prog *obj.Program, bench string) *Pipeline {
	return &Pipeline{
		Prog:     prog,
		splits:   make(map[string]*entry[*obj.Program]),
		links:    make(map[string]*entry[*link.Executable]),
		sims:     make(map[string]*entry[*sim.Result]),
		ladders:  make(map[string]*entry[*sim.CacheLadder]),
		analyses: make(map[string]*analysisEntry),
		contexts: make(map[string]*entry[*wcet.Context]),
		allocs:   make(map[string]*entry[*Allocation]),
		profile:  &entry[*sim.Profile]{},
		bench:    bench,
		counts:   newCounters(bench),
	}
}

// profileStageKey addresses the profile in the disk tier. Profiles stored
// under the earlier key "profile" carry no per-width counts, and deriving
// from one would price every placement at zero saving, so they are never
// read.
const profileStageKey = "profile|widths"

// SetStore attaches (or, with nil, detaches) the on-disk artifact store as
// the second cache tier. Attach before first use so cold stages are served
// from a warm store; attaching later is safe — an already-collected
// profile is flushed to the store so other processes skip profiling, but
// other artifacts already in memory are not backfilled.
func (p *Pipeline) SetStore(s *store.Store) {
	p.mu.Lock()
	p.disk = s
	prof := p.profile
	p.mu.Unlock()
	if s == nil {
		return
	}
	prof.mu.Lock()
	defer prof.mu.Unlock()
	if prof.done && prof.err == nil && prof.val != nil {
		if err := s.SaveProfile(p.programKey(), profileStageKey, prof.val); err != nil {
			p.counts.storeErrors.Inc()
		}
	}
}

// Store returns the attached artifact store, or nil.
func (p *Pipeline) Store() *store.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.disk
}

// programKey is the content hash of the compiled program — the program
// half of every disk key — computed once on first use.
func (p *Pipeline) programKey() string {
	p.progOnce.Do(func() { p.progKey = store.ProgramKey(p.Prog) })
	return p.progKey
}

// unitPrefix canonically encodes a placement-unit partition as a stage-key
// prefix. The empty partition encodes as "" so whole-object keys — and the
// disk entries addressed by them — are byte-identical to the pre-unit
// scheme: warm stores stay warm across granularities.
func unitPrefix(regions []obj.Region) string {
	if len(regions) == 0 {
		return ""
	}
	return "units=" + obj.RegionsKey(regions) + "|"
}

// SplitProgram returns (memoized) the program with the given hot regions
// outlined into fragment placement units; the empty partition returns the
// pipeline's own program. The result is shared and must not be mutated.
func (p *Pipeline) SplitProgram(regions []obj.Region) (*obj.Program, error) {
	if len(regions) == 0 {
		return p.Prog, nil
	}
	key := obj.RegionsKey(regions)
	p.mu.Lock()
	e, ok := p.splits[key]
	if !ok {
		e = &entry[*obj.Program]{}
		p.splits[key] = e
	}
	p.mu.Unlock()
	return e.get(func() (*obj.Program, error) {
		return obj.SplitProgram(p.Prog, regions)
	})
}

// PlacementKey canonicalises one scratchpad placement: residents sorted by
// name, and the empty placement normalised to capacity 0 (an empty
// scratchpad links, simulates and analyses identically at every capacity).
func PlacementKey(spmSize uint32, inSPM map[string]bool) string {
	names := make([]string, 0, len(inSPM))
	for n, in := range inSPM {
		if in {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return "spm=0|"
	}
	sort.Strings(names)
	return fmt.Sprintf("spm=%d|%s", spmSize, strings.Join(names, ","))
}

func cacheKey(c *cache.Config) string {
	if c == nil {
		return "nocache"
	}
	return fmt.Sprintf("cache=%d/%d/%d/%s", c.Size, c.LineSize, c.Assoc, cacheKind(c))
}

// cacheKind names a cache's kind in stage keys.
func cacheKind(c *cache.Config) string {
	if c.InstructionOnly {
		return "icache"
	}
	return "unified"
}

func analysisKey(placement string, opts wcet.Options) string {
	// Witness is intentionally absent: see the package comment.
	return fmt.Sprintf("%s|%s|stack=%d|root=%s", placement, cacheKey(opts.Cache), opts.StackBound, opts.Root)
}

// Link links the program under one placement, memoized. An empty placement
// is linked once regardless of the requested capacity (key normalisation);
// the returned executable is shared and must be treated as read-only.
func (p *Pipeline) Link(ctx context.Context, spmSize uint32, inSPM map[string]bool) (*link.Executable, error) {
	return p.LinkUnits(ctx, nil, spmSize, inSPM)
}

// LinkUnits is Link under a placement-unit partition: the program is first
// split at the given hot regions (memoized), then linked with the chosen
// objects — fragments included — in the scratchpad.
func (p *Pipeline) LinkUnits(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool) (*link.Executable, error) {
	key := unitPrefix(regions) + PlacementKey(spmSize, inSPM)
	_, sp := obs.Start(ctx, "stage:link", obs.A("tier", "memory"))
	defer sp.End()
	p.mu.Lock()
	e, ok := p.links[key]
	if !ok {
		e = &entry[*link.Executable]{}
		p.links[key] = e
	}
	p.mu.Unlock()
	p.counts.link.memory.count(ok)
	return e.get(func() (*link.Executable, error) {
		sp.SetAttr("tier", "compute")
		prog, err := p.SplitProgram(regions)
		if err != nil {
			return nil, err
		}
		p.counts.link.runs.Inc()
		defer p.timed(ctx, p.counts.link, key, time.Now())
		if strings.HasSuffix(key, "spm=0|") {
			// Normalised empty placement: capacity-independent.
			return link.Link(prog, 0, nil)
		}
		return link.Link(prog, spmSize, inSPM)
	})
}

// Simulate runs (memoized) the typical input under one placement and cache
// configuration, consulting the disk tier before computing. The returned
// result is shared and must be treated as read-only. It carries the run's
// counters but a nil Mem: neither tier keeps the final memory image.
func (p *Pipeline) Simulate(ctx context.Context, spmSize uint32, inSPM map[string]bool, ccfg *cache.Config) (*sim.Result, error) {
	return p.SimulateUnits(ctx, nil, spmSize, inSPM, ccfg)
}

// SimulateUnits is Simulate under a placement-unit partition.
func (p *Pipeline) SimulateUnits(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool, ccfg *cache.Config) (*sim.Result, error) {
	key := unitPrefix(regions) + PlacementKey(spmSize, inSPM) + "|" + cacheKey(ccfg)
	sctx, sp := obs.Start(ctx, "stage:simulate", obs.A("tier", "memory"))
	defer sp.End()
	p.mu.Lock()
	e, ok := p.sims[key]
	if !ok {
		e = &entry[*sim.Result]{}
		p.sims[key] = e
	}
	p.mu.Unlock()
	p.counts.sim.memory.count(ok)
	return e.get(func() (*sim.Result, error) {
		if disk := p.diskStore(); disk != nil {
			r, ok := disk.LoadSim(p.programKey(), key)
			p.counts.sim.disk.count(ok)
			if ok {
				sp.SetAttr("tier", "disk")
				return r, nil
			}
		}
		exe, err := p.LinkUnits(sctx, regions, spmSize, inSPM)
		if err != nil {
			return nil, err
		}
		var res *sim.Result
		switch {
		case ccfg == nil && len(regions) == 0:
			res, err = p.simulateDerived(sctx, sp, exe, key)
		case ccfg != nil && ccfg.Validate() == nil && ccfg.WithDefaults().Assoc == 1:
			res, err = p.simulateLadder(ctx, sp, exe, unitPrefix(regions)+PlacementKey(spmSize, inSPM), ccfg.WithDefaults())
		default:
			res, err = p.run(ctx, sp, exe, ccfg, key)
		}
		if err == nil {
			p.storeSave(func(disk *store.Store) error {
				return disk.SaveSim(p.programKey(), key, res)
			})
		}
		return res, err
	})
}

// run simulates exe for real: one cold execution of the simulate stage.
// It keeps only the counters, as the disk tier does: the final memory
// image would pin the run's stack, code and data.
func (p *Pipeline) run(ctx context.Context, sp *obs.Span, exe *link.Executable, ccfg *cache.Config, key string) (*sim.Result, error) {
	p.counts.sim.runs.Inc()
	sp.SetAttr("tier", "compute")
	t0 := time.Now()
	res, err := sim.Run(exe, sim.Options{Cache: ccfg})
	p.timed(ctx, p.counts.sim, key, t0)
	if err != nil {
		return nil, err
	}
	res.Mem = nil
	return res, nil
}

// simulateLadder serves a valid direct-mapped configuration from the
// placement's ladder for the configuration's line size and kind: the
// request that finds no ladder runs one (a real run), and every later size
// is read off it (a derived result).
func (p *Pipeline) simulateLadder(ctx context.Context, sp *obs.Span, exe *link.Executable, placement string, ccfg cache.Config) (*sim.Result, error) {
	key := fmt.Sprintf("%s|ladder=%d/%s", placement, ccfg.LineSize, cacheKind(&ccfg))
	p.mu.Lock()
	e, ok := p.ladders[key]
	if !ok {
		e = &entry[*sim.CacheLadder]{}
		p.ladders[key] = e
	}
	p.mu.Unlock()
	ran := false
	l, err := e.get(func() (*sim.CacheLadder, error) {
		ran = true
		p.counts.sim.runs.Inc()
		sp.SetAttr("tier", "compute")
		defer p.timed(ctx, p.counts.sim, key, time.Now())
		return sim.RunLadder(exe, ccfg.LineSize, ccfg.InstructionOnly)
	})
	if err != nil {
		return nil, err
	}
	if !ran {
		p.counts.derived.Inc()
		sp.SetAttr("tier", "derived")
	}
	return l.At(ccfg.Size)
}

// simulateDerived serves a cache-less whole-object placement from the
// profile, unless the exactness guard has tripped. The first non-empty
// placement is also run for real, and that run is its result.
func (p *Pipeline) simulateDerived(ctx context.Context, sp *obs.Span, exe *link.Executable, key string) (*sim.Result, error) {
	state := p.guard.state.Load()
	if state == guardOff {
		return p.run(ctx, sp, exe, nil, key)
	}
	prof, err := p.Profile(ctx)
	if err != nil {
		return nil, err
	}
	res := sim.Derive(prof, exe)
	if state == guardUnchecked && slices.ContainsFunc(exe.Placements, func(pl *link.Placement) bool { return pl.InSPM }) {
		real, exact, err := p.check(ctx, sp, exe, key, res)
		if real != nil || err != nil {
			return real, err
		}
		if !exact {
			return p.run(ctx, sp, exe, nil, key)
		}
	}
	p.counts.derived.Inc()
	sp.SetAttr("tier", "derived")
	return res, nil
}

// check makes the exactness check once per pipeline: it simulates the
// placement behind derived and compares cycles, instructions and exit
// code. Concurrent callers wait for it. It returns the real result when
// this call made the check, and otherwise whether the check found
// derivation exact. A run that fails leaves the check to the next
// placement.
func (p *Pipeline) check(ctx context.Context, sp *obs.Span, exe *link.Executable, key string, derived *sim.Result) (real *sim.Result, exact bool, err error) {
	g := &p.guard
	g.mu.Lock()
	defer g.mu.Unlock()
	if s := g.state.Load(); s != guardUnchecked {
		return nil, s == guardExact, nil
	}
	if real, err = p.run(ctx, sp, exe, nil, key); err != nil {
		return nil, false, err
	}
	exact = real.Cycles == derived.Cycles && real.Instrs == derived.Instrs && real.ExitCode == derived.ExitCode
	if exact {
		g.state.Store(guardExact)
	} else {
		g.state.Store(guardOff)
		p.counts.fallbacks.Inc()
	}
	return real, exact, nil
}

// Analyze runs (memoized) the WCET analysis for one placement and analysis
// configuration, consulting the disk tier before computing. A cached
// result lacking a witness is re-analysed in place when opts.Witness is
// set (counted in Stats.AnalyzeUpgrades, and the disk entry overwritten);
// a cached result carrying a witness serves witness-less requests
// directly. The returned result is shared; treat it as read-only.
func (p *Pipeline) Analyze(ctx context.Context, spmSize uint32, inSPM map[string]bool, opts wcet.Options) (*wcet.Result, error) {
	return p.AnalyzeUnits(ctx, nil, spmSize, inSPM, opts)
}

// AnalyzeUnits is Analyze under a placement-unit partition; the partition
// is part of the memo and disk keys, so warm runs at a fixed granularity
// recompute nothing.
func (p *Pipeline) AnalyzeUnits(ctx context.Context, regions []obj.Region, spmSize uint32, inSPM map[string]bool, opts wcet.Options) (*wcet.Result, error) {
	key := analysisKey(unitPrefix(regions)+PlacementKey(spmSize, inSPM), opts)
	sctx, sp := obs.Start(ctx, "stage:analyze", obs.A("tier", "memory"))
	defer sp.End()
	p.mu.Lock()
	e := p.analyses[key]
	if e == nil {
		e = &analysisEntry{}
		p.analyses[key] = e
	}
	p.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	upgrade := e.done && e.err == nil && opts.Witness && e.res.Witness == nil
	if upgrade {
		e.done = false
	}
	p.counts.analyze.memory.count(e.done)
	if !e.done {
		// Disk tier. LoadWCET treats a witness-less entry as a miss when a
		// witness is required, which covers both the cold path and the
		// upgrade of a disk-served witness-less result.
		if disk := p.diskStore(); disk != nil {
			r, ok := disk.LoadWCET(p.programKey(), key, opts.Witness)
			p.counts.analyze.disk.count(ok)
			if ok {
				sp.SetAttr("tier", "disk")
				e.res, e.err, e.done = r, nil, true
				return e.res, e.err
			}
		}
		p.counts.analyze.runs.Inc()
		if upgrade {
			p.counts.upgrades.Inc()
		}
		sp.SetAttr("tier", "compute")
		// Analyses share a reusable context per partition and cache shape
		// (or none): the CFG, IPET skeletons and block decomposition are
		// built once, and each (capacity, placement) redoes only the work its
		// delta touches. Results are bit-identical to a from-scratch link +
		// analyze.
		wctx, err := p.contextFor(sctx, regions, opts)
		if err != nil {
			e.res, e.err = nil, err
		} else {
			// Mirror LinkUnits' key normalisation: the empty placement
			// analyses identically at every capacity, including capacities
			// the linker would reject.
			if PlacementKey(spmSize, inSPM) == "spm=0|" {
				spmSize, inSPM = 0, nil
			}
			var cacheSize uint32
			if opts.Cache != nil {
				cacheSize = opts.Cache.Size
			}
			t0 := time.Now()
			e.res, e.err = wctx.AnalyzeCtx(sctx, cacheSize, spmSize, inSPM, opts.Witness)
			p.timed(ctx, p.counts.analyze, key, t0)
		}
		e.done = true
		if e.err == nil {
			p.storeSave(func(disk *store.Store) error {
				return disk.SaveWCET(p.programKey(), key, e.res)
			})
		}
	}
	return e.res, e.err
}

// contextFor returns (memoized, singleflight) the reusable analysis
// context for one partition and analysis configuration, built from the
// partition's scratchpad-less base link.
func (p *Pipeline) contextFor(ctx context.Context, regions []obj.Region, opts wcet.Options) (*wcet.Context, error) {
	key := contextKey(regions, opts)
	p.mu.Lock()
	e, ok := p.contexts[key]
	if !ok {
		e = &entry[*wcet.Context]{}
		p.contexts[key] = e
	}
	p.mu.Unlock()
	return e.get(func() (*wcet.Context, error) {
		base, err := p.LinkUnits(ctx, regions, 0, nil)
		if err != nil {
			return nil, err
		}
		c, err := wcet.NewContext(base, opts)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.ctxList = append(p.ctxList, c)
		p.mu.Unlock()
		return c, nil
	})
}

// contextKey is the analysis-context cache key: the partition, the cache
// *shape* or none (capacity varies per Analyze, so it is deliberately
// absent — one context serves a whole capacity sweep) and the Options
// fields the context bakes in (placement and witness vary per Analyze).
func contextKey(regions []obj.Region, opts wcet.Options) string {
	shape := "none"
	if opts.Cache != nil {
		cc := opts.Cache.WithDefaults()
		shape = fmt.Sprintf("%d/%d/%s", cc.LineSize, cc.Assoc, cacheKind(&cc))
	}
	return fmt.Sprintf("%scacheshape=%s|stack=%d|root=%s", unitPrefix(regions), shape, opts.StackBound, opts.Root)
}

// Profile collects (memoized) the typical-input access profile on the
// baseline system (no scratchpad, no cache), consulting the disk tier
// before simulating.
func (p *Pipeline) Profile(ctx context.Context) (*sim.Profile, error) {
	sctx, sp := obs.Start(ctx, "stage:profile", obs.A("tier", "memory"))
	defer sp.End()
	p.mu.Lock()
	e := p.profile
	p.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	p.counts.profile.memory.count(e.done)
	if e.done {
		return e.val, e.err
	}
	if disk := p.diskStore(); disk != nil {
		prof, ok := disk.LoadProfile(p.programKey(), profileStageKey)
		p.counts.profile.disk.count(ok)
		if ok {
			sp.SetAttr("tier", "disk")
			e.val, e.err, e.done = prof, nil, true
			return e.val, e.err
		}
	}
	p.counts.profile.runs.Inc()
	sp.SetAttr("tier", "compute")
	exe, err := p.Link(sctx, 0, nil)
	if err != nil {
		e.val, e.err = nil, err
	} else {
		t0 := time.Now()
		e.val, e.err = sim.CollectProfile(exe, sim.Options{})
		p.timed(ctx, p.counts.profile, profileStageKey, t0)
	}
	e.done = true
	if e.err == nil {
		e.val.Result.Mem = nil // as in SimulateUnits
		p.storeSave(func(disk *store.Store) error {
			return disk.SaveProfile(p.programKey(), profileStageKey, e.val)
		})
	}
	return e.val, e.err
}

// PrimeProfile seeds the profile stage with an already-collected artifact
// (e.g. when resetting link/analyse artifacts without re-profiling).
func (p *Pipeline) PrimeProfile(prof *sim.Profile) {
	p.mu.Lock()
	e := p.profile
	p.mu.Unlock()
	e.mu.Lock()
	e.val, e.err, e.done = prof, nil, true
	e.mu.Unlock()
}

// Allocate runs (memoized) the allocation policy at one capacity. The memo
// key is the policy's ConfigKey plus the capacity, so repeated sweeps
// serve the knapsack/fixpoint solves from cache instead of re-solving; a
// policy whose configuration cannot be captured (ConfigKey() == "") runs
// unmemoized every time. Keyed solves also persist in the disk tier
// (stage key "alloc|<ConfigKey>|cap=<n>"), so warm sweeps re-solve zero
// knapsacks *across processes*, not just within one.
func (p *Pipeline) Allocate(ctx context.Context, a Allocator, capacity uint32) (*Allocation, error) {
	ck := a.ConfigKey()
	if ck == "" {
		return p.runAllocate(ctx, a, capacity)
	}
	key := fmt.Sprintf("alloc|%s|cap=%d", ck, capacity)
	sctx, sp := obs.Start(ctx, "stage:alloc", obs.A("tier", "memory"), obs.A("capacity", capacity))
	defer sp.End()
	p.mu.Lock()
	e, ok := p.allocs[key]
	if !ok {
		e = &entry[*Allocation]{}
		p.allocs[key] = e
	}
	p.mu.Unlock()
	p.counts.alloc.memory.count(ok)
	return e.get(func() (*Allocation, error) {
		if disk := p.diskStore(); disk != nil {
			art, ok := disk.LoadAlloc(p.programKey(), key)
			p.counts.alloc.disk.count(ok)
			if ok {
				sp.SetAttr("tier", "disk")
				return &Allocation{
					InSPM: art.InSPM, Benefit: art.Benefit, Used: art.Used, Splits: art.Splits,
					Iterations: int(art.Iterations), Converged: art.Converged,
				}, nil
			}
		}
		sp.SetAttr("tier", "compute")
		alloc, err := p.runAllocate(sctx, a, capacity)
		if err == nil {
			p.storeSave(func(disk *store.Store) error {
				return disk.SaveAlloc(p.programKey(), key, &store.AllocArtifact{
					InSPM: alloc.InSPM, Benefit: alloc.Benefit, Used: alloc.Used, Splits: alloc.Splits,
					Iterations: uint32(alloc.Iterations), Converged: alloc.Converged,
				})
			})
		}
		return alloc, err
	})
}

func (p *Pipeline) runAllocate(ctx context.Context, a Allocator, capacity uint32) (*Allocation, error) {
	p.counts.alloc.runs.Inc()
	t0 := time.Now()
	alloc, err := a.Allocate(ctx, p, capacity)
	p.timed(ctx, p.counts.alloc, fmt.Sprintf("%s|cap=%d", a.Name(), capacity), t0)
	return alloc, err
}

// timed records one cold execution that started at t0: its wall clock goes
// to the stage's sum and latency histogram, and to one debug record —
// visible only at `-log debug`, and cost-free below it (one atomic load).
func (p *Pipeline) timed(ctx context.Context, st *stage, key string, t0 time.Time) {
	d := time.Since(t0)
	st.nanos.Add(int64(d))
	st.seconds.Observe(d.Seconds())
	if !obs.DebugEnabled() {
		return
	}
	obs.Debug(ctx, "stage",
		obs.A("stage", st.name), obs.A("bench", p.bench), obs.A("key", key),
		obs.A("dur_ms", float64(d)/float64(time.Millisecond)))
}

// StageLatency reads the per-stage latency histograms back out of the
// process-wide registry for one benchmark; bench == "" aggregates across
// every benchmark. Keys are the stage names ("link", "simulate",
// "analyze", "profile", "alloc"); stages that never ran cold are absent.
func StageLatency(bench string) map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot)
	for _, f := range obs.Default.Snapshot() {
		if f.Name != "wcetlab_stage_seconds" {
			continue
		}
		for _, s := range f.Samples {
			if s.Hist == nil || s.Hist.Count == 0 {
				continue
			}
			if bench != "" && s.Label("bench") != bench {
				continue
			}
			stage := s.Label("stage")
			if prev, ok := out[stage]; ok {
				prev.Merge(*s.Hist)
				out[stage] = prev
			} else {
				cp := *s.Hist
				cp.Counts = append([]uint64(nil), s.Hist.Counts...)
				out[stage] = cp
			}
		}
	}
	return out
}

// Stats returns a snapshot of the stage counters. Context builds and
// reuses are derived from the registered contexts: one build each, and
// every analysis after a context's first is a reuse.
func (p *Pipeline) Stats() Stats {
	var s Stats
	n := &p.counts
	s.Links, s.LinkHits, _, _, s.LinkTime = n.link.read()
	s.Sims, s.SimHits, s.SimDiskHits, s.SimDiskMisses, s.SimTime = n.sim.read()
	s.Analyses, s.AnalyzeHits, s.AnalyzeDiskHits, s.AnalyzeDiskMisses, s.AnalyzeTime = n.analyze.read()
	s.Profiles, s.ProfileHits, s.ProfileDiskHits, s.ProfileDiskMisses, s.ProfileTime = n.profile.read()
	s.Allocs, s.AllocHits, s.AllocDiskHits, s.AllocDiskMisses, s.AllocTime = n.alloc.read()
	s.AnalyzeUpgrades, s.StoreErrors = n.upgrades.Value(), n.storeErrors.Value()
	s.SimsDerived, s.SimDeriveFallbacks = n.derived.Value(), n.fallbacks.Value()
	s.FullLinks = s.Links
	p.mu.Lock()
	ctxs := slices.Clone(p.ctxList)
	p.mu.Unlock()
	for _, c := range ctxs {
		cs := c.Stats()
		builds, reuses := &s.ContextBuilds, &s.ContextReuses
		if c.HasCache() {
			builds, reuses = &s.CacheContextBuilds, &s.CacheContextReuses
			s.CacheFuncsReanalyzed += cs.FuncsReanalyzed
			s.CacheFuncs += cs.FuncsTotal
			s.MustSolves += cs.MustSolves
			s.MustMemoHits += cs.MustMemoHits
		}
		*builds++
		*reuses += max(cs.Analyses, 1) - 1
		s.SolverStateHits += cs.StateHits
		s.SolverStateMisses += cs.StateMisses
	}
	return s
}

func (p *Pipeline) diskStore() *store.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.disk
}

// storeSave performs a best-effort disk write: a failure is counted, not
// surfaced — the computed artifact is still valid and returned.
func (p *Pipeline) storeSave(save func(*store.Store) error) {
	disk := p.diskStore()
	if disk == nil {
		return
	}
	if err := save(disk); err != nil {
		p.counts.storeErrors.Inc()
	}
}
