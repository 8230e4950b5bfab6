// Package sim runs linked executables on the ARM7 THUMB model, producing
// average-case cycle counts (the paper's ARMulator role) and per-object
// access profiles that drive the scratchpad allocator.
//
// A profile also prices scratchpad placements without running them. Every
// access to a scratchpad-resident object costs mem.SPMCycles, so a
// cache-less run of a placement takes the profiled (scratchpad-less) run's
// cycles minus mem.SPMSaving for each access the resident objects serve,
// by width. Derive computes that result. It is exact as long as the
// program's control flow and data do not depend on where its objects are
// placed; the caller checks this against a real run (internal/pipeline
// does, once per program).
//
// One cache-less run also prices every direct-mapped cache capacity of one
// line size and kind: RunLadder feeds the run's main-memory accesses to a
// cache.Ladder, and CacheLadder.At swaps their main-memory cost for the
// cache's hit and miss cost at one size. The executable is the same at
// every size, so the result equals Run's with that cache.
package sim

import (
	"fmt"

	"repro/internal/arm"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/mem"
	"repro/internal/obj"
)

// DefaultMaxInstrs bounds simulated instructions to catch runaway programs.
const DefaultMaxInstrs = 200_000_000

// Options configures a simulation run.
type Options struct {
	// Cache, when non-nil, enables a unified cache in front of main memory.
	Cache *cache.Config
	// MaxInstrs overrides the default instruction budget when non-zero.
	MaxInstrs uint64
	// OnAccess observes every memory access (profiling).
	OnAccess func(mem.Access)
}

// Result summarises a simulation run.
type Result struct {
	Cycles      uint64
	Instrs      uint64
	CacheHits   uint64
	CacheMisses uint64
	// ExitCode is r0 when the program executed SWI 0 (main's return value).
	ExitCode uint32
	// Mem is the final memory system, for post-run inspection of outputs.
	// Results served by the pipeline's memo or store have a nil Mem.
	Mem *mem.System
}

// Run simulates the executable from its entry point until SWI 0.
func Run(exe *link.Executable, opts Options) (*Result, error) {
	sys, err := exe.NewMemory(opts.Cache)
	if err != nil {
		return nil, err
	}
	sys.OnAccess = opts.OnAccess
	cpu := arm.NewCPU(sys, exe.EntryAddr, link.StackTop)
	budget := opts.MaxInstrs
	if budget == 0 {
		budget = DefaultMaxInstrs
	}
	if err := cpu.Run(budget); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res := &Result{
		Cycles:   cpu.Cycles,
		Instrs:   cpu.Instrs,
		ExitCode: cpu.R[0],
		Mem:      sys,
	}
	if sys.Cache != nil {
		res.CacheHits = sys.Cache.Hits
		res.CacheMisses = sys.Cache.Misses
	}
	return res, nil
}

// ObjectProfile aggregates the accesses hitting one memory object during a
// profiling run.
type ObjectProfile struct {
	// Fetches counts instruction fetches (16-bit accesses) within the
	// object (code objects only).
	Fetches uint64
	// LiteralReads counts 32-bit data reads within a code object (literal
	// pool accesses).
	LiteralReads uint64
	// Reads and Writes count data accesses to data objects, performed at
	// the object's element width.
	Reads  uint64
	Writes uint64
	// ByWidth counts every access above by its width: ByWidth[i] holds the
	// accesses of 1<<i bytes. Fetches are halfword accesses and literal-pool
	// reads word accesses.
	ByWidth [3]uint64
}

// SPMSaving returns the cycles this run would have saved had the object
// been in the scratchpad: mem.SPMSaving over its accesses by width.
func (p *ObjectProfile) SPMSaving() uint64 {
	var total uint64
	for i, n := range p.ByWidth {
		total += mem.SPMSaving(1<<i, n)
	}
	return total
}

// Total returns the total access count.
func (p *ObjectProfile) Total() uint64 {
	return p.Fetches + p.LiteralReads + p.Reads + p.Writes
}

// Profile is a per-object access profile from a typical-input run.
type Profile struct {
	// ByObject maps object name to its access counts.
	ByObject map[string]*ObjectProfile
	// StackAccesses counts accesses that fell into the stack region.
	StackAccesses uint64
	// MinStackAddr is the lowest stack address touched (== link.StackTop if
	// the stack was never used). StackTop-MinStackAddr is the observed
	// maximum stack depth, which the WCET pipeline inflates into a safe
	// stack bound annotation.
	MinStackAddr uint32
	// Result is the underlying simulation result.
	Result *Result
}

// ObservedStackDepth returns the maximum stack depth seen in bytes.
func (p *Profile) ObservedStackDepth() uint32 { return link.StackTop - p.MinStackAddr }

// CollectProfile simulates the baseline executable (typically linked with
// no scratchpad) and attributes every access to its memory object. The
// paper's compiler uses exactly this knowledge of "execution and access
// frequencies" to drive the knapsack allocation.
func CollectProfile(exe *link.Executable, opts Options) (*Profile, error) {
	prof := &Profile{
		ByObject:     make(map[string]*ObjectProfile, len(exe.Placements)),
		MinStackAddr: link.StackTop,
	}
	for _, pl := range exe.Placements {
		prof.ByObject[pl.Obj.Name] = &ObjectProfile{}
	}
	prev := opts.OnAccess
	opts.OnAccess = func(a mem.Access) {
		if prev != nil {
			prev(a)
		}
		if a.Addr >= link.StackBase && a.Addr < link.StackTop {
			prof.StackAccesses++
			if a.Addr < prof.MinStackAddr {
				prof.MinStackAddr = a.Addr
			}
			return
		}
		pl := exe.FindAddr(a.Addr)
		if pl == nil {
			return
		}
		op := prof.ByObject[pl.Obj.Name]
		op.ByWidth[a.Size>>1]++ // 1, 2, 4 bytes → 0, 1, 2
		switch {
		case a.Fetch:
			op.Fetches++
		case pl.Obj.Kind == obj.Code:
			op.LiteralReads++
		case a.Write:
			op.Writes++
		default:
			op.Reads++
		}
	}
	res, err := Run(exe, opts)
	if err != nil {
		return nil, err
	}
	prof.Result = res
	return prof, nil
}

// Derive returns the cache-less run of exe priced from prof, the profile
// of the same program linked without a scratchpad: the profile's cycles
// minus the scratchpad saving of every object exe places in the
// scratchpad, and the profile's instruction count and exit code. The
// result has no cache hits or misses and a nil Mem. It equals Run's result
// while the program's behaviour does not depend on its layout.
func Derive(prof *Profile, exe *link.Executable) *Result {
	cycles := prof.Result.Cycles
	for _, pl := range exe.Placements {
		if op := prof.ByObject[pl.Obj.Name]; pl.InSPM && op != nil {
			cycles -= op.SPMSaving()
		}
	}
	return &Result{Cycles: cycles, Instrs: prof.Result.Instrs, ExitCode: prof.Result.ExitCode}
}

// CacheLadder is one cache-less run of an executable together with the
// hits and misses every direct-mapped cache of one line size and kind would
// have had on it.
type CacheLadder struct {
	run    *Result
	ladder *cache.Ladder
	// served is the main-memory cost of the accesses the cache serves.
	served uint64
}

// RunLadder runs exe without a cache and feeds every main-memory access a
// direct-mapped cache of the given line size and kind would serve to a
// cache.Ladder. Scratchpad accesses bypass the cache and are skipped.
func RunLadder(exe *link.Executable, lineSize uint32, instructionOnly bool) (*CacheLadder, error) {
	l, err := cache.NewLadder(lineSize, instructionOnly)
	if err != nil {
		return nil, err
	}
	c := &CacheLadder{ladder: l}
	spmEnd := uint64(link.SPMBase) + uint64(exe.SPMSize)
	c.run, err = Run(exe, Options{OnAccess: func(a mem.Access) {
		if a.Addr >= link.SPMBase && uint64(a.Addr)+uint64(a.Size) <= spmEnd || !l.Serves(a.Fetch, a.Write) {
			return
		}
		c.served += uint64(mem.MainCost(a.Size))
		l.Read(a.Addr)
	}})
	if err != nil {
		return nil, err
	}
	c.run.Mem = nil
	l.Release()
	return c, nil
}

// At returns the run as it would have been with the direct-mapped cache of
// the given size in front of main memory: the cache-less cycles minus the
// main-memory cost of every access the cache serves plus its hit and miss
// cost, the run's instruction count and exit code, and a nil Mem. The size
// must be a power of two between the line size and cache.MaxSize.
func (c *CacheLadder) At(size uint32) (*Result, error) {
	hits, misses, err := c.ladder.Counts(size)
	if err != nil {
		return nil, err
	}
	return &Result{
		Cycles:      c.run.Cycles - c.served + hits*cache.HitCycles + misses*cache.MissCycles,
		Instrs:      c.run.Instrs,
		CacheHits:   hits,
		CacheMisses: misses,
		ExitCode:    c.run.ExitCode,
	}, nil
}
