package main

import (
	"context"
	"runtime/metrics"
	"time"

	"repro/internal/benchprog"
	"repro/internal/core"
)

// tracer accumulates the traced iteration's per-layer split. The traced
// iteration makes exactly the core.Lab calls an untraced one makes, one at
// a time, and reads the Lab's pipeline.Stats around each. The stage clocks
// time every cold link, simulation, analysis and profile exclusively, and
// the iteration is sequential, so a clock's advance across a call is that
// call's work in the stage's layer. The rest is split without a clock:
// NewLab's remainder is the compiler; a Lab call's allocator time is the
// allocation clock (the energy knapsack runs no nested stage) or, for a
// call that is itself an allocator (Lab.ParetoFront), all of the call
// outside the other stage clocks; what remains is core.self. Analysis
// contexts are built outside the analysis clock, so their construction
// counts as core.self, or as alloc on pareto_front.
type tracer struct {
	// ms is exclusive host time per layer: "cc.compile", "sim.profile",
	// "alloc", "link", "sim", "sim.cache", "wcet", "wcet.cache",
	// "core.self".
	ms map[string]time.Duration

	// allocated is the heap allocated inside the per-configuration Lab
	// calls.
	allocated     uint64
	profileInstrs uint64
	// calls holds every timed per-configuration call, for count.
	calls []tracedCall

	simInstrs      uint64
	simCacheInstrs uint64
	simCycles      uint64
	cacheHits      uint64
	cacheMisses    uint64
}

type tracedCall struct {
	lab    *core.Lab
	c      config
	raw    any
	simmed bool // the call ran a cold simulation
}

func newTracer() *tracer { return &tracer{ms: map[string]time.Duration{}} }

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// newLab is core.NewLab under the tracer. The Lab's pipeline is new, so its
// stage clocks hold NewLab's own profile and link.
func (t *tracer) newLab(b benchprog.Benchmark) (*core.Lab, error) {
	t0 := time.Now()
	lab, err := core.NewLab(b)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	s := lab.Pipe.Stats()
	t.ms["sim.profile"] += s.ProfileTime
	t.ms["link"] += s.LinkTime
	t.ms["cc.compile"] += d - s.ProfileTime - s.LinkTime
	t.profileInstrs += lab.Profile.Result.Instrs
	return lab, nil
}

// measure makes one configuration's Lab call, as w.measure, under the
// tracer.
func (t *tracer) measure(ctx context.Context, w workload, lab *core.Lab, c config) (any, error) {
	s0 := lab.Pipe.Stats()
	heap0 := heapAllocBytes()
	t0 := time.Now()
	raw, err := w.measure(ctx, lab, c)
	d := time.Since(t0)
	t.allocated += heapAllocBytes() - heap0
	s1 := lab.Pipe.Stats()

	link := s1.LinkTime - s0.LinkTime
	sim := s1.SimTime - s0.SimTime
	wcet := s1.AnalyzeTime - s0.AnalyzeTime
	alloc := s1.AllocTime - s0.AllocTime
	if w.allocator {
		alloc = d - link - sim - wcet
	}
	simLayer, wcetLayer := "sim", "wcet"
	if c.Kind == "cache" || c.Kind == "icache" {
		simLayer, wcetLayer = "sim.cache", "wcet.cache"
	}
	t.ms["link"] += link
	t.ms[simLayer] += sim
	t.ms[wcetLayer] += wcet
	t.ms["alloc"] += alloc
	t.ms["core.self"] += d - link - sim - wcet - alloc
	if err == nil {
		t.calls = append(t.calls, tracedCall{lab: lab, c: c, raw: raw, simmed: s1.Sims > s0.Sims})
	}
	return raw, err
}

// count reads the modelled statistics of the timed calls, after the traced
// iteration and outside its timing: cycles and cache hits of every
// configuration, and instructions of the cold simulations. A call whose
// outcome cannot be read counts nothing here; the gate counts its failure.
func (t *tracer) count(ctx context.Context, w workload) {
	for _, tc := range t.calls {
		o, err := w.finish(ctx, tc.lab, tc.c, tc.raw)
		if err != nil {
			continue
		}
		t.simCycles += o.SimCycles
		t.cacheHits += o.CacheHits
		t.cacheMisses += o.CacheMisses
		if tc.simmed {
			t.simInstrs += o.Instrs
			if tc.c.Kind == "cache" || tc.c.Kind == "icache" {
				t.simCacheInstrs += o.Instrs
			}
		}
	}
	t.calls = nil
}
