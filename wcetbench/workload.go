package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/wcet"
)

// config is one measured configuration: a Table 2 program under one memory
// configuration. The generated list is the only input the program sees.
type config struct {
	Bench string `json:"bench"`
	// Kind is "spm" (energy-knapsack scratchpad), "cache" (unified cache),
	// "icache" (instruction-only cache) or "pareto" (energy/WCET front).
	Kind  string `json:"kind"`
	Size  uint32 `json:"size"`
	Assoc int    `json:"assoc,omitempty"`
	// Paper marks the core.PaperSizes rows that the golden and figure
	// checks pin.
	Paper bool `json:"paper,omitempty"`
	// SimCheck marks the seeded sample re-simulated from scratch by the gate.
	SimCheck bool `json:"sim_check,omitempty"`
}

// cache is the cache configuration core.Lab.WithCache or
// WithInstructionCache builds for c.
func (c config) cache() *cache.Config {
	return &cache.Config{Size: c.Size, Assoc: c.Assoc, InstructionOnly: c.Kind == "icache"}
}

func (c config) String() string {
	s := fmt.Sprintf("%s/%s/%d", c.Bench, c.Kind, c.Size)
	if c.Assoc > 1 {
		s += fmt.Sprintf("/%dway", c.Assoc)
	}
	return s
}

// outcome is everything a configuration's measurement must reproduce
// exactly: the gate compares it against the from-scratch oracle, the
// golden and figure files, and across iterations.
type outcome struct {
	SimCycles   uint64       `json:"sim_cycles,omitempty"`
	Instrs      uint64       `json:"instrs,omitempty"`
	WCET        uint64       `json:"wcet,omitempty"`
	CacheHits   uint64       `json:"cache_hits,omitempty"`
	CacheMisses uint64       `json:"cache_misses,omitempty"`
	Energy      float64      `json:"energy_nj,omitempty"`
	Used        uint32       `json:"spm_used,omitempty"`
	InSPM       []string     `json:"in_spm,omitempty"`
	Front       []frontPoint `json:"front,omitempty"`
	// EnergyWCET is the energy-directed bound at a Pareto front's capacity,
	// the base of its front_wcet_ratio.
	EnergyWCET uint64 `json:"energy_wcet,omitempty"`
}

type frontPoint struct {
	Kind   string   `json:"kind"`
	WCET   uint64   `json:"wcet"`
	Energy float64  `json:"energy_nj"`
	InSPM  []string `json:"in_spm"`
}

// workload is one of the benchmark's closed-loop sweeps.
type workload struct {
	name string
	// configs generates one program's configurations for iteration iter:
	// the paper rows plus the seeded extras.
	configs func(r *rand.Rand, bench string, iter int) []config
	// measure is the timed call into core.Lab's public API.
	measure func(ctx context.Context, lab *core.Lab, c config) (any, error)
	// allocator marks a measure call that is itself an allocator
	// (Lab.ParetoFront): the tracer counts its time outside the other
	// stage clocks as allocation.
	allocator bool
	// finish turns measure's result into an outcome, outside the timed
	// region (it may read memoized pipeline artifacts).
	finish func(ctx context.Context, lab *core.Lab, c config, raw any) (outcome, error)
}

const (
	minCapacity = 64
	maxCapacity = 8192
	// spmExtras, cacheExtras and paretoExtras are the seeded extra
	// configurations per program and iteration. Pareto cost is bimodal in
	// the capacity (sub-millisecond degenerate fronts next to 300 ms
	// scans), so it draws many.
	spmExtras    = 8
	cacheExtras  = 8
	paretoExtras = 32
	// subStrata splits each capacity stratum further: iteration j draws
	// from sub-stratum j mod subStrata, so a run's iterations together
	// sample the capacity range finely and its total work barely depends
	// on the seed.
	subStrata = 8
	// simCheckEvery sets the seeded re-simulation sample: one in this many
	// configurations.
	simCheckEvery = 8
)

var workloads = map[string]workload{
	"spm_sweep": {
		name: "spm_sweep",
		configs: func(r *rand.Rand, bench string, iter int) []config {
			return capacityConfigs(r, bench, "spm", spmExtras, iter)
		},
		measure: func(ctx context.Context, lab *core.Lab, c config) (any, error) {
			return lab.WithScratchpad(ctx, c.Size)
		},
		finish: finishScratchpad,
	},
	"cache_sweep": {
		name:    "cache_sweep",
		configs: cacheConfigs,
		measure: func(ctx context.Context, lab *core.Lab, c config) (any, error) {
			if c.Kind == "icache" {
				return lab.WithInstructionCache(ctx, c.Size)
			}
			return lab.WithCache(ctx, c.Size, c.Assoc)
		},
		finish: finishCache,
	},
	"pareto_front": {
		name: "pareto_front",
		configs: func(r *rand.Rand, bench string, iter int) []config {
			return capacityConfigs(r, bench, "pareto", paretoExtras, iter)
		},
		measure: func(ctx context.Context, lab *core.Lab, c config) (any, error) {
			return lab.ParetoFront(ctx, c.Size)
		},
		allocator: true,
		finish:    finishPareto,
	},
}

// generate builds iteration iter's configuration list from the seed: every
// Table 2 program at every paper size plus the workload's seeded extras,
// programs in registry order and capacities ascending within a program. A
// seeded sample is marked for re-simulation (none on pareto_front, which
// simulates nothing after setup).
func generate(w workload, seed uint64, iter int) []config {
	r := rand.New(rand.NewPCG(seed, uint64(iter)))
	var out []config
	for _, b := range benchprog.All() {
		cs := w.configs(r, b.Name, iter)
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].Size != cs[j].Size {
				return cs[i].Size < cs[j].Size
			}
			if cs[i].Kind != cs[j].Kind {
				return cs[i].Kind < cs[j].Kind
			}
			return cs[i].Assoc < cs[j].Assoc
		})
		out = append(out, cs...)
	}
	if w.name != "pareto_front" {
		for i := range out {
			out[i].SimCheck = r.IntN(simCheckEvery) == 0
		}
	}
	return out
}

// capacityConfigs is the paper sizes plus n 4-byte-aligned capacities in
// [minCapacity, maxCapacity], log-uniform: one draw per log-spaced stratum
// (from the iteration's sub-stratum, or the whole stratum where that holds
// no free capacity), distinct from the paper sizes and the earlier draws.
func capacityConfigs(r *rand.Rand, bench, kind string, n, iter int) []config {
	var out []config
	seen := map[uint32]bool{}
	for _, s := range core.PaperSizes {
		seen[s] = true
		out = append(out, config{Bench: bench, Kind: kind, Size: s, Paper: true})
	}
	span := math.Log(maxCapacity / minCapacity)
	for k := 0; k < n; k++ {
		for try := 0; ; try++ {
			if try == 1000 {
				panic(fmt.Sprintf("wcetbench: no free capacity in stratum %d of %d", k, n))
			}
			u := (float64(iter%subStrata) + r.Float64()) / subStrata
			if try >= 20 {
				u = r.Float64()
			}
			x := minCapacity * math.Exp(span*(float64(k)+u)/float64(n))
			s := uint32(math.Round(x/4)) * 4
			if s < minCapacity || s > maxCapacity || seen[s] {
				continue
			}
			seen[s] = true
			out = append(out, config{Bench: bench, Kind: kind, Size: s})
			break
		}
	}
	return out
}

// cacheConfigs is the paper's direct-mapped unified caches plus
// cacheExtras distinct draws from power-of-two sizes in
// [minCapacity, maxCapacity] × {unified 1/2/4-way, instruction-only}.
// core.Lab.WithInstructionCache takes no associativity, so instruction
// caches are direct mapped.
func cacheConfigs(r *rand.Rand, bench string, _ int) []config {
	var out, pool []config
	for _, s := range core.PaperSizes {
		out = append(out, config{Bench: bench, Kind: "cache", Size: s, Assoc: 1, Paper: true})
		pool = append(pool,
			config{Bench: bench, Kind: "cache", Size: s, Assoc: 2},
			config{Bench: bench, Kind: "cache", Size: s, Assoc: 4},
			config{Bench: bench, Kind: "icache", Size: s})
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return append(out, pool[:cacheExtras]...)
}

func sortedNames(inSPM map[string]bool) []string {
	names := []string{}
	for n, in := range inSPM {
		if in {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func finishScratchpad(ctx context.Context, lab *core.Lab, c config, raw any) (outcome, error) {
	m := raw.(core.Measurement)
	// Memo hits: the allocation and simulation the measurement used.
	a, err := lab.Pipe.Allocate(ctx, lab.EnergyAllocator(), c.Size)
	if err != nil {
		return outcome{}, err
	}
	res, err := lab.Pipe.SimulateUnits(ctx, a.Splits, c.Size, a.InSPM, nil)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		SimCycles: m.SimCycles, Instrs: res.Instrs, WCET: m.WCET, Energy: m.Energy, Used: m.SPMUsed,
		InSPM: sortedNames(a.InSPM),
	}, nil
}

func finishCache(ctx context.Context, lab *core.Lab, c config, raw any) (outcome, error) {
	m := raw.(core.Measurement)
	// A memo hit: the simulation the measurement used.
	res, err := lab.Pipe.SimulateUnits(ctx, nil, 0, nil, c.cache())
	if err != nil {
		return outcome{}, err
	}
	return outcome{SimCycles: m.SimCycles, Instrs: res.Instrs, WCET: m.WCET, CacheHits: m.CacheHits, CacheMisses: m.CacheMisses}, nil
}

func finishPareto(ctx context.Context, lab *core.Lab, c config, raw any) (outcome, error) {
	f := raw.(core.ParetoFrontAt)
	var o outcome
	for _, p := range f.Points {
		o.Front = append(o.Front, frontPoint{Kind: p.Kind, WCET: p.WCET, Energy: p.EnergyNJ, InSPM: sortedNames(p.InSPM)})
	}
	// Both are memo hits: the front solved and certified the energy
	// endpoint even where it is dominated away.
	a, err := lab.Pipe.Allocate(ctx, lab.EnergyAllocator(), c.Size)
	if err != nil {
		return outcome{}, err
	}
	res, err := lab.Pipe.Analyze(ctx, c.Size, a.InSPM, wcet.Options{Witness: true})
	if err != nil {
		return outcome{}, err
	}
	o.EnergyWCET = res.WCET
	return o, nil
}
