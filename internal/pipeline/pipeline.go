// Package pipeline is the staged measurement pipeline behind every
// experiment in the repository. An immutable compiled program flows through
// memoized stages —
//
//	Link(placement)            → Executable
//	Simulate(placement, cache) → simulation result
//	Analyze(placement, opts)   → WCET bound (+ witness)
//	Profile()                  → typical-input access profile
//	Allocate(policy, capacity) → scratchpad allocation
//
// — each keyed by a canonical placement/configuration key, so within one
// Pipeline no identical link, simulation, WCET analysis or allocation
// solve ever runs twice. The sweeps in internal/core and the fixpoint loop
// in internal/wcetalloc share one Pipeline per benchmark and therefore
// share artifacts: the capacity-independent empty-scratchpad analysis is
// computed once per program (not once per swept size), and the energy-seed
// analysis the fixpoint starts from is the same artifact the measurement
// layer reports.
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
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/wcet"
)

// Allocation is the shared result type of every scratchpad allocator (the
// energy-directed knapsack in internal/spm aliases it, the WCET-directed
// fixpoint in internal/wcetalloc converts to it).
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
	// (the wcetalloc fixpoint: accepted steps including the baseline, and
	// whether it reached a fixpoint before its cap). Single-shot knapsack
	// policies leave them zero.
	Iterations int
	Converged  bool
}

// Allocator is the common interface of the scratchpad allocators: given
// the pipeline holding the compiled program (and, memoized, its profile
// and analysis artifacts), choose the objects to place at one capacity.
// internal/spm's Energy and internal/wcetalloc's Directed implement it.
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
// pairs with a run). AnalyzeUpgrades counts re-runs of an already-analysed
// configuration to attach a witness — the only way a configuration is ever
// analysed twice. The *Time fields accumulate wall clock spent in cold
// stage executions; AllocTime is the allocators' wall clock and includes
// the nested stage computations a solve triggers (e.g. the wcetalloc
// fixpoint's analyses), so it is not disjoint from AnalyzeTime.
type Stats struct {
	Links, LinkHits       uint64
	Sims, SimHits         uint64
	Analyses, AnalyzeHits uint64
	AnalyzeUpgrades       uint64
	Profiles, ProfileHits uint64
	Allocs, AllocHits     uint64

	// ContextBuilds counts reusable analysis contexts built (cold: CFG +
	// IPET skeletons + cost decomposition); ContextReuses counts cold
	// analyses served by re-pricing an existing context instead.
	ContextBuilds, ContextReuses uint64

	// CacheContextBuilds / CacheContextReuses are the cache-path analogue:
	// cache analysis contexts built cold vs cold analyses served by an
	// existing cache context. CacheFuncsReanalyzed / CacheFuncs split the
	// function-level MUST fixed point: solves that actually re-ran vs
	// functions in scope across all cache-context analyses.
	CacheContextBuilds, CacheContextReuses uint64
	CacheFuncsReanalyzed, CacheFuncs       uint64

	// FullLinks counts base layouts linked from scratch (one per prepared
	// partition); DeltaLinks counts placements patched from a prepared base.
	// RelocsResolved / RelocsReused split the relocation sites those delta
	// relinks re-resolved vs reused byte-exact from the base images.
	FullLinks, DeltaLinks        uint64
	RelocsResolved, RelocsReused uint64

	// SolverStateHits / SolverStateMisses: per-function IPET solves served
	// from recorded solver state (in-process or store-imported) vs solves
	// that had to run.
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
	s.FullLinks += o.FullLinks
	s.DeltaLinks += o.DeltaLinks
	s.RelocsResolved += o.RelocsResolved
	s.RelocsReused += o.RelocsReused
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
	prepared map[string]*entry[*link.Prepared]
	sims     map[string]*entry[*sim.Result]
	analyses map[string]*analysisEntry
	contexts map[string]*entry[*wcet.Context]
	cctxs    map[string]*entry[*wcet.CacheContext]
	allocs   map[string]*entry[*Allocation]
	profile  *entry[*sim.Profile]
	stats    Stats
	// preps/ctxList/cctxList register successfully built prepared linkers
	// and analysis contexts; Stats folds in their atomic counters without
	// touching entry locks (which an in-flight compute may hold).
	preps    []*link.Prepared
	ctxList  []*wcet.Context
	cctxList []*wcet.CacheContext

	bench string
	om    pipeMetrics

	progOnce sync.Once
	progKey  string
}

// stageMetrics are one stage's series in the process-wide registry,
// resolved once per pipeline so the hot paths pay only atomic increments.
// They mirror Stats exactly: runs = cold executions, the cache counters
// split by tier, seconds distributes the same wall clock the *Time sums
// accumulate.
type stageMetrics struct {
	runs     *obs.Counter
	seconds  *obs.Histogram
	memHit   *obs.Counter
	memMiss  *obs.Counter
	diskHit  *obs.Counter
	diskMiss *obs.Counter
}

func newStageMetrics(stage, bench string) stageMetrics {
	cache := func(tier, result string) *obs.Counter {
		return obs.Default.Counter("wcetlab_stage_cache_total",
			"Pipeline stage cache lookups by tier and result.",
			"stage", stage, "tier", tier, "result", result, "bench", bench)
	}
	return stageMetrics{
		runs: obs.Default.Counter("wcetlab_stage_runs_total",
			"Cold pipeline stage executions.", "stage", stage, "bench", bench),
		seconds: obs.Default.Histogram("wcetlab_stage_seconds",
			"Wall clock per cold pipeline stage execution.", nil,
			"stage", stage, "bench", bench),
		memHit:   cache("memory", "hit"),
		memMiss:  cache("memory", "miss"),
		diskHit:  cache("disk", "hit"),
		diskMiss: cache("disk", "miss"),
	}
}

type pipeMetrics struct {
	link, sim, analyze, profile, alloc stageMetrics

	upgrades    *obs.Counter
	storeErrors *obs.Counter
}

func newPipeMetrics(bench string) pipeMetrics {
	return pipeMetrics{
		link:    newStageMetrics("link", bench),
		sim:     newStageMetrics("simulate", bench),
		analyze: newStageMetrics("analyze", bench),
		profile: newStageMetrics("profile", bench),
		alloc:   newStageMetrics("alloc", bench),
		upgrades: obs.Default.Counter("wcetlab_analyze_witness_upgrades_total",
			"Re-analyses of a cached configuration to attach a witness.", "bench", bench),
		storeErrors: obs.Default.Counter("wcetlab_store_write_errors_total",
			"Failed best-effort artifact store writes.", "bench", bench),
	}
}

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
		prepared: make(map[string]*entry[*link.Prepared]),
		sims:     make(map[string]*entry[*sim.Result]),
		analyses: make(map[string]*analysisEntry),
		contexts: make(map[string]*entry[*wcet.Context]),
		cctxs:    make(map[string]*entry[*wcet.CacheContext]),
		allocs:   make(map[string]*entry[*Allocation]),
		profile:  &entry[*sim.Profile]{},
		bench:    bench,
		om:       newPipeMetrics(bench),
	}
}

const profileStageKey = "profile"

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
			p.count(func(st *Stats) { st.StoreErrors++ })
			p.om.storeErrors.Inc()
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
	kind := "unified"
	if c.InstructionOnly {
		kind = "icache"
	}
	return fmt.Sprintf("cache=%d/%d/%d/%s", c.Size, c.LineSize, c.Assoc, kind)
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
	if ok {
		p.count(func(s *Stats) { s.LinkHits++ })
		p.om.link.memHit.Inc()
	} else {
		p.om.link.memMiss.Inc()
	}
	return e.get(func() (*link.Executable, error) {
		sp.SetAttr("tier", "compute")
		prep, err := p.preparedFor(regions)
		if err != nil {
			return nil, err
		}
		p.count(func(s *Stats) { s.Links++ })
		p.om.link.runs.Inc()
		t0 := time.Now()
		defer func() {
			d := time.Since(t0)
			p.count(func(s *Stats) { s.LinkTime += d })
			p.om.link.seconds.Observe(d.Seconds())
			p.debugStage(ctx, "link", key, d)
		}()
		if strings.HasSuffix(key, "spm=0|") {
			// Normalised empty placement: capacity-independent (and the
			// prepared base layout verbatim).
			return prep.Relink(0, nil)
		}
		return prep.Relink(spmSize, inSPM)
	})
}

// preparedFor returns (memoized, singleflight) the partition's prepared
// delta linker: the capacity-0 base layout, its resolved images and the
// reverse relocation index, built once; every placement of the partition is
// then a patch of that base rather than a from-scratch link.
func (p *Pipeline) preparedFor(regions []obj.Region) (*link.Prepared, error) {
	key := unitPrefix(regions)
	p.mu.Lock()
	e, ok := p.prepared[key]
	if !ok {
		e = &entry[*link.Prepared]{}
		p.prepared[key] = e
	}
	p.mu.Unlock()
	return e.get(func() (*link.Prepared, error) {
		prog, err := p.SplitProgram(regions)
		if err != nil {
			return nil, err
		}
		prep, err := link.Prepare(prog)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.preps = append(p.preps, prep)
		p.mu.Unlock()
		return prep, nil
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
	if ok {
		p.count(func(s *Stats) { s.SimHits++ })
		p.om.sim.memHit.Inc()
	} else {
		p.om.sim.memMiss.Inc()
	}
	return e.get(func() (*sim.Result, error) {
		if disk := p.diskStore(); disk != nil {
			if r, ok := disk.LoadSim(p.programKey(), key); ok {
				p.count(func(s *Stats) { s.SimDiskHits++ })
				p.om.sim.diskHit.Inc()
				sp.SetAttr("tier", "disk")
				return r, nil
			}
			p.count(func(s *Stats) { s.SimDiskMisses++ })
			p.om.sim.diskMiss.Inc()
		}
		p.count(func(s *Stats) { s.Sims++ })
		p.om.sim.runs.Inc()
		sp.SetAttr("tier", "compute")
		exe, err := p.LinkUnits(sctx, regions, spmSize, inSPM)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := sim.Run(exe, sim.Options{Cache: ccfg})
		d := time.Since(t0)
		p.count(func(s *Stats) { s.SimTime += d })
		p.om.sim.seconds.Observe(d.Seconds())
		p.debugStage(ctx, "simulate", key, d)
		if err == nil {
			// Memoize only the counters, as the disk tier does: the final
			// memory image would pin the run's stack, code and data.
			res.Mem = nil
			p.storeSave(func(disk *store.Store) error {
				return disk.SaveSim(p.programKey(), key, res)
			})
		}
		return res, err
	})
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
	upgrade := false
	switch {
	case !e.done:
		p.om.analyze.memMiss.Inc()
	case e.err == nil && opts.Witness && e.res.Witness == nil:
		upgrade = true
		e.done = false
		p.om.analyze.memMiss.Inc()
	default:
		p.count(func(s *Stats) { s.AnalyzeHits++ })
		p.om.analyze.memHit.Inc()
	}
	if !e.done {
		// Disk tier. LoadWCET treats a witness-less entry as a miss when a
		// witness is required, which covers both the cold path and the
		// upgrade of a disk-served witness-less result.
		if disk := p.diskStore(); disk != nil {
			if r, ok := disk.LoadWCET(p.programKey(), key, opts.Witness); ok {
				p.count(func(s *Stats) { s.AnalyzeDiskHits++ })
				p.om.analyze.diskHit.Inc()
				sp.SetAttr("tier", "disk")
				e.res, e.err, e.done = r, nil, true
				return e.res, e.err
			}
			p.count(func(s *Stats) { s.AnalyzeDiskMisses++ })
			p.om.analyze.diskMiss.Inc()
		}
		p.count(func(s *Stats) {
			s.Analyses++
			if upgrade {
				s.AnalyzeUpgrades++
			}
		})
		p.om.analyze.runs.Inc()
		if upgrade {
			p.om.upgrades.Inc()
		}
		sp.SetAttr("tier", "compute")
		var usedCtx *wcet.Context
		if opts.Cache == nil {
			// Cache-less analyses share a reusable context per partition:
			// the CFG and IPET skeletons are built once, each placement only
			// re-prices its delta. Results are bit-identical to the
			// from-scratch path below.
			wctx, built, err := p.contextFor(sctx, regions, opts)
			if err != nil {
				e.res, e.err = nil, err
			} else {
				usedCtx = wctx
				p.count(func(s *Stats) {
					if built {
						s.ContextBuilds++
					} else {
						s.ContextReuses++
					}
				})
				// Mirror LinkUnits' key normalisation: the empty placement
				// analyses identically at every capacity, including
				// capacities the linker would reject.
				if PlacementKey(spmSize, inSPM) == "spm=0|" {
					spmSize, inSPM = 0, nil
				}
				t0 := time.Now()
				e.res, e.err = wctx.AnalyzeCtx(sctx, spmSize, inSPM, opts.Witness)
				d := time.Since(t0)
				p.count(func(s *Stats) { s.AnalyzeTime += d })
				p.om.analyze.seconds.Observe(d.Seconds())
				p.debugStage(ctx, "analyze", key, d)
			}
		} else {
			// Cache analyses share a reusable cache context per partition and
			// cache *shape*: the CFG, IPET skeletons and symbolic access
			// streams are built once, each (capacity, placement) replays only
			// the functions whose MUST inputs changed. Results are
			// bit-identical to a from-scratch link + analyze.
			cctx, built, err := p.cacheContextFor(sctx, regions, opts)
			if err != nil {
				e.res, e.err = nil, err
			} else {
				p.count(func(s *Stats) {
					if built {
						s.CacheContextBuilds++
					} else {
						s.CacheContextReuses++
					}
				})
				// Mirror LinkUnits' key normalisation: the empty placement
				// analyses identically at every capacity, including
				// capacities the linker would reject.
				if PlacementKey(spmSize, inSPM) == "spm=0|" {
					spmSize, inSPM = 0, nil
				}
				t0 := time.Now()
				e.res, e.err = cctx.AnalyzeCtx(sctx, opts.Cache.Size, spmSize, inSPM, opts.Witness)
				d := time.Since(t0)
				p.count(func(s *Stats) { s.AnalyzeTime += d })
				p.om.analyze.seconds.Observe(d.Seconds())
				p.debugStage(ctx, "analyze", key, d)
			}
		}
		e.done = true
		if e.err == nil {
			p.storeSave(func(disk *store.Store) error {
				return disk.SaveWCET(p.programKey(), key, e.res)
			})
			if usedCtx != nil && p.diskStore() != nil {
				// Persist newly recorded solver state so the next cold
				// process inherits a warm solver, not just memoized results.
				if st, dirty := usedCtx.ExportStateIfDirty(); dirty {
					skey := solverStateKey(contextKey(regions, opts))
					p.storeSave(func(disk *store.Store) error {
						return disk.SaveSolverState(p.programKey(), skey, st)
					})
				}
			}
		}
	}
	return e.res, e.err
}

// contextFor returns (memoized, singleflight) the reusable analysis
// context for one partition and analysis configuration, built from the
// partition's scratchpad-less base link. built reports whether this call
// did the cold build.
func (p *Pipeline) contextFor(ctx context.Context, regions []obj.Region, opts wcet.Options) (*wcet.Context, bool, error) {
	key := contextKey(regions, opts)
	p.mu.Lock()
	e, ok := p.contexts[key]
	if !ok {
		e = &entry[*wcet.Context]{}
		p.contexts[key] = e
	}
	p.mu.Unlock()
	built := false
	wctx, err := e.get(func() (*wcet.Context, error) {
		base, err := p.LinkUnits(ctx, regions, 0, nil)
		if err != nil {
			return nil, err
		}
		built = true
		c, err := wcet.NewContext(base, opts)
		if err != nil {
			return nil, err
		}
		// Cross-process warm start: seed the fresh context with the solver
		// state a previous process persisted for this exact configuration.
		// Deliberately outside the stage disk-hit/miss counters — it is a
		// solver seed, not a served artifact.
		if disk := p.diskStore(); disk != nil {
			if st, ok := disk.LoadSolverState(p.programKey(), solverStateKey(key)); ok {
				c.ImportState(st)
			}
		}
		p.mu.Lock()
		p.ctxList = append(p.ctxList, c)
		p.mu.Unlock()
		return c, nil
	})
	return wctx, built, err
}

// contextKey is the analysis-context cache key: the partition plus every
// Options field the context bakes in (placement and witness vary per
// Analyze; Cache is always nil on this path).
func contextKey(regions []obj.Region, opts wcet.Options) string {
	return fmt.Sprintf("%sstack=%d|root=%s", unitPrefix(regions), opts.StackBound, opts.Root)
}

// cacheContextFor returns (memoized, singleflight) the reusable cache
// analysis context for one partition and cache shape, built from the
// partition's prepared linker. built reports whether this call did the
// cold build.
func (p *Pipeline) cacheContextFor(ctx context.Context, regions []obj.Region, opts wcet.Options) (*wcet.CacheContext, bool, error) {
	key := cacheContextKey(regions, opts)
	p.mu.Lock()
	e, ok := p.cctxs[key]
	if !ok {
		e = &entry[*wcet.CacheContext]{}
		p.cctxs[key] = e
	}
	p.mu.Unlock()
	built := false
	cctx, err := e.get(func() (*wcet.CacheContext, error) {
		_ = ctx // the build is pure compute; spans attach per Analyze
		prep, err := p.preparedFor(regions)
		if err != nil {
			return nil, err
		}
		built = true
		c, err := wcet.NewCacheContext(prep, opts)
		if err != nil {
			return nil, err
		}
		p.mu.Lock()
		p.cctxList = append(p.cctxList, c)
		p.mu.Unlock()
		return c, nil
	})
	return cctx, built, err
}

// cacheContextKey is the cache-context cache key: the partition, the cache
// *shape* (capacity varies per Analyze, so it is deliberately absent —
// one context serves a whole capacity sweep) and the Options fields the
// context bakes in.
func cacheContextKey(regions []obj.Region, opts wcet.Options) string {
	cc := opts.Cache.WithDefaults()
	kind := "unified"
	if cc.InstructionOnly {
		kind = "icache"
	}
	return fmt.Sprintf("%scacheshape=%d/%d/%s|stack=%d|root=%s",
		unitPrefix(regions), cc.LineSize, cc.Assoc, kind, opts.StackBound, opts.Root)
}

// solverStateKey is the store stage key persisting a context's solver state.
func solverStateKey(ctxKey string) string { return "solverstate|" + ctxKey }

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
	if e.done {
		p.count(func(s *Stats) { s.ProfileHits++ })
		p.om.profile.memHit.Inc()
		return e.val, e.err
	}
	p.om.profile.memMiss.Inc()
	if disk := p.diskStore(); disk != nil {
		if prof, ok := disk.LoadProfile(p.programKey(), profileStageKey); ok {
			p.count(func(s *Stats) { s.ProfileDiskHits++ })
			p.om.profile.diskHit.Inc()
			sp.SetAttr("tier", "disk")
			e.val, e.err, e.done = prof, nil, true
			return e.val, e.err
		}
		p.count(func(s *Stats) { s.ProfileDiskMisses++ })
		p.om.profile.diskMiss.Inc()
	}
	p.count(func(s *Stats) { s.Profiles++ })
	p.om.profile.runs.Inc()
	sp.SetAttr("tier", "compute")
	exe, err := p.Link(sctx, 0, nil)
	if err != nil {
		e.val, e.err = nil, err
	} else {
		t0 := time.Now()
		e.val, e.err = sim.CollectProfile(exe, sim.Options{})
		d := time.Since(t0)
		p.count(func(s *Stats) { s.ProfileTime += d })
		p.om.profile.seconds.Observe(d.Seconds())
		p.debugStage(ctx, "profile", profileStageKey, d)
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
	if ok {
		p.count(func(s *Stats) { s.AllocHits++ })
		p.om.alloc.memHit.Inc()
	} else {
		p.om.alloc.memMiss.Inc()
	}
	return e.get(func() (*Allocation, error) {
		if disk := p.diskStore(); disk != nil {
			if art, ok := disk.LoadAlloc(p.programKey(), key); ok {
				p.count(func(s *Stats) { s.AllocDiskHits++ })
				p.om.alloc.diskHit.Inc()
				sp.SetAttr("tier", "disk")
				return &Allocation{
					InSPM: art.InSPM, Benefit: art.Benefit, Used: art.Used, Splits: art.Splits,
					Iterations: int(art.Iterations), Converged: art.Converged,
				}, nil
			}
			p.count(func(s *Stats) { s.AllocDiskMisses++ })
			p.om.alloc.diskMiss.Inc()
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
	p.count(func(s *Stats) { s.Allocs++ })
	p.om.alloc.runs.Inc()
	t0 := time.Now()
	alloc, err := a.Allocate(ctx, p, capacity)
	d := time.Since(t0)
	p.count(func(s *Stats) { s.AllocTime += d })
	p.om.alloc.seconds.Observe(d.Seconds())
	p.debugStage(ctx, "alloc", fmt.Sprintf("%s|cap=%d", a.Name(), capacity), d)
	return alloc, err
}

// debugStage emits one debug record per cold stage execution — visible
// only at `-log debug`, and cost-free below it (one atomic load).
func (p *Pipeline) debugStage(ctx context.Context, stage, key string, d time.Duration) {
	if !obs.DebugEnabled() {
		return
	}
	obs.Debug(ctx, "stage",
		obs.A("stage", stage), obs.A("bench", p.bench), obs.A("key", key),
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

// Stats returns a snapshot of the stage counters.
func (p *Pipeline) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	preps := append([]*link.Prepared(nil), p.preps...)
	ctxs := append([]*wcet.Context(nil), p.ctxList...)
	cctxs := append([]*wcet.CacheContext(nil), p.cctxList...)
	p.mu.Unlock()
	// Fold in the delta-link and solver-state counters from the registered
	// objects' atomics — never their locks, which an in-flight compute may
	// hold for the length of a solve.
	s.FullLinks = uint64(len(preps))
	for _, prep := range preps {
		rs := prep.Stats()
		s.DeltaLinks += rs.Relinks
		s.RelocsResolved += rs.RelocsResolved
		s.RelocsReused += rs.RelocsReused
	}
	for _, c := range ctxs {
		h, m := c.StateCounts()
		s.SolverStateHits += h
		s.SolverStateMisses += m
	}
	for _, c := range cctxs {
		re, total := c.FuncCounts()
		s.CacheFuncsReanalyzed += re
		s.CacheFuncs += total
	}
	return s
}

func (p *Pipeline) count(f func(*Stats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
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
		p.count(func(s *Stats) { s.StoreErrors++ })
		p.om.storeErrors.Inc()
	}
}
