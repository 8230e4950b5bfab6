package pipeline_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/arm"
	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/obj"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/wcet"
)

const testProgram = `
int a[32];

int suma() {
    int s = 0;
    for (int i = 0; i < 32; i += 1) s = s + a[i];
    return s;
}

int main() {
    int s = 0;
    for (int k = 0; k < 4; k += 1) s = s + suma();
    return s & 7;
}
`

func compile(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	prog, err := cc.Compile(testProgram)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.New(prog)
}

// TestPlacementKeyCanonical: the key must not depend on map iteration
// order or false entries, and the empty placement must normalise to
// capacity 0 (it links/simulates/analyses identically at every capacity).
func TestPlacementKeyCanonical(t *testing.T) {
	a := pipeline.PlacementKey(256, map[string]bool{"x": true, "y": true, "z": false})
	b := pipeline.PlacementKey(256, map[string]bool{"y": true, "x": true})
	if a != b {
		t.Errorf("keys differ for the same placement: %q vs %q", a, b)
	}
	if pipeline.PlacementKey(256, map[string]bool{"x": true}) == pipeline.PlacementKey(512, map[string]bool{"x": true}) {
		t.Error("capacity must be part of a non-empty placement's key")
	}
	for _, size := range []uint32{0, 64, 8192} {
		for _, in := range []map[string]bool{nil, {}, {"x": false}} {
			if got := pipeline.PlacementKey(size, in); got != pipeline.PlacementKey(0, nil) {
				t.Errorf("empty placement at size %d keyed %q, want the normalised key", size, got)
			}
		}
	}
}

// TestMemoization: repeated stage requests for the same key must run the
// underlying tool once and serve the rest from the cache.
func TestMemoization(t *testing.T) {
	p := compile(t)
	in := map[string]bool{"a": true}
	for i := 0; i < 3; i++ {
		if _, err := p.Link(context.Background(), 256, in); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Simulate(context.Background(), 256, in, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Analyze(context.Background(), 256, in, wcet.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()
	// Two cold links: the requested placement plus the scratchpad-less base
	// link the analysis context is built from.
	if s.Links != 2 || s.Sims != 1 || s.Analyses != 1 {
		t.Errorf("cold runs: links=%d sims=%d analyses=%d, want 2/1/1", s.Links, s.Sims, s.Analyses)
	}
	if s.ContextBuilds != 1 {
		t.Errorf("context builds = %d, want 1", s.ContextBuilds)
	}
	if s.SimHits != 2 || s.AnalyzeHits != 2 {
		t.Errorf("hits: sim=%d analyze=%d, want 2 each", s.SimHits, s.AnalyzeHits)
	}

	// A different cache configuration is a different simulation artifact.
	if _, err := p.Simulate(context.Background(), 256, in, &cache.Config{Size: 256, Assoc: 1}); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Sims; got != 2 {
		t.Errorf("cache-config simulation not keyed separately: %d runs", got)
	}
	// A second direct-mapped size of the same placement is read off the
	// first one's ladder: no further run, one more derived result.
	before := p.Stats()
	if _, err := p.Simulate(context.Background(), 256, in, &cache.Config{Size: 1024, Assoc: 1}); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Sims != before.Sims || s.SimsDerived != before.SimsDerived+1 {
		t.Errorf("second direct-mapped size: sims %d -> %d, derived %d -> %d, want unchanged and +1",
			before.Sims, s.Sims, before.SimsDerived, s.SimsDerived)
	}
}

// TestEmptyPlacementSharedAcrossCapacities: the empty-scratchpad analysis
// is capacity-independent and must be computed once for the whole sweep.
func TestEmptyPlacementSharedAcrossCapacities(t *testing.T) {
	p := compile(t)
	var bounds []uint64
	for _, size := range []uint32{0, 64, 1024, 8192} {
		res, err := p.Analyze(context.Background(), size, nil, wcet.Options{Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, res.WCET)
	}
	for _, b := range bounds[1:] {
		if b != bounds[0] {
			t.Fatalf("empty-scratchpad bounds differ across capacities: %v", bounds)
		}
	}
	if s := p.Stats(); s.Analyses != 1 || s.AnalyzeHits != 3 {
		t.Errorf("analyses=%d hits=%d, want 1 run and 3 hits", s.Analyses, s.AnalyzeHits)
	}
}

// TestWitnessUpgrade: a witness-less cached analysis is re-run in place
// when a witness is first requested (counted as an upgrade), and a
// witness-bearing result serves witness-less requests with the same bound.
func TestWitnessUpgrade(t *testing.T) {
	p := compile(t)
	plain, err := p.Analyze(context.Background(), 0, nil, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Witness != nil {
		t.Fatal("witness-less analysis produced a witness")
	}
	up, err := p.Analyze(context.Background(), 0, nil, wcet.Options{Witness: true})
	if err != nil {
		t.Fatal(err)
	}
	if up.Witness == nil {
		t.Fatal("witness upgrade produced no witness")
	}
	if up.WCET != plain.WCET {
		t.Fatalf("upgrade changed the bound: %d vs %d", up.WCET, plain.WCET)
	}
	again, err := p.Analyze(context.Background(), 0, nil, wcet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != up {
		t.Error("witness-bearing result must serve witness-less requests")
	}
	s := p.Stats()
	if s.Analyses != 2 || s.AnalyzeUpgrades != 1 || s.AnalyzeHits != 1 {
		t.Errorf("analyses=%d upgrades=%d hits=%d, want 2/1/1", s.Analyses, s.AnalyzeUpgrades, s.AnalyzeHits)
	}
}

// TestRejectedPlacementIsNotAReuse: an analysis whose placement overflows
// the scratchpad returns the link error and serves nothing from the
// analysis context, so it counts as a reuse neither in Stats nor in the
// registry.
func TestRejectedPlacementIsNotAReuse(t *testing.T) {
	p := compile(t)
	ctx := context.Background()
	if _, err := p.Analyze(ctx, 0, nil, wcet.Options{}); err != nil {
		t.Fatal(err)
	}
	reuses := func() uint64 { return obs.Default.CounterTotal("wcetlab_context_reuses_total") }
	before, regBefore := p.Stats(), reuses()

	in := map[string]bool{"a": true} // 128 bytes
	_, want := link.Link(p.Prog, 4, in)
	if want == nil {
		t.Fatal("a 128-byte object linked into a 4-byte scratchpad")
	}
	if _, err := p.Analyze(ctx, 4, in, wcet.Options{}); err == nil || err.Error() != want.Error() {
		t.Fatalf("analysis error %v, want the link error %v", err, want)
	}
	s := p.Stats()
	if s.ContextBuilds != 1 || s.ContextReuses != before.ContextReuses {
		t.Errorf("context builds %d, reuses %d -> %d; want 1 build and no reuse",
			s.ContextBuilds, before.ContextReuses, s.ContextReuses)
	}
	if got := reuses(); got != regBefore {
		t.Errorf("wcetlab_context_reuses_total moved %d -> %d on a rejected placement", regBefore, got)
	}
}

// TestConcurrentSingleflight: concurrent requests for one key must compute
// the artifact exactly once and all receive the same result.
func TestConcurrentSingleflight(t *testing.T) {
	p := compile(t)
	const n = 16
	results := make([]*wcet.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := p.Analyze(context.Background(), 512, map[string]bool{"a": true}, wcet.Options{Witness: true})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent requests returned distinct artifacts")
		}
	}
	if s := p.Stats(); s.Analyses != 1 {
		t.Errorf("%d analyses for one key under concurrency, want 1", s.Analyses)
	}
}

// TestProfileMemoizedAndPrimable: the profile stage runs once, and
// PrimeProfile seeds a fresh pipeline without re-profiling.
func TestProfileMemoizedAndPrimable(t *testing.T) {
	p := compile(t)
	prof, err := p.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Profile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Profiles != 1 || s.ProfileHits != 1 {
		t.Errorf("profiles=%d hits=%d, want 1/1", s.Profiles, s.ProfileHits)
	}
	fresh := pipeline.New(p.Prog)
	fresh.PrimeProfile(prof)
	got, err := fresh.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got != prof {
		t.Error("primed profile not returned")
	}
	if s := fresh.Stats(); s.Profiles != 0 {
		t.Errorf("primed pipeline re-profiled %d times", s.Profiles)
	}
}

// TestMemoizedResultsDropMemory: simulation results and the profile the
// memory tier keeps carry their counters but no final memory image, with
// and without a cache, on the computing call and on a memo hit alike.
func TestMemoizedResultsDropMemory(t *testing.T) {
	p := compile(t)
	ctx := context.Background()
	for _, ccfg := range []*cache.Config{nil, {Size: 256}} {
		for pass := 0; pass < 2; pass++ {
			res, err := p.Simulate(ctx, 0, nil, ccfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Mem != nil || res.Instrs == 0 {
				t.Errorf("cache %v pass %d: has Mem=%v instrs=%d, want nil Mem and counters", ccfg, pass, res.Mem != nil, res.Instrs)
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		prof, err := p.Profile(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Result.Mem != nil || prof.Result.Instrs == 0 {
			t.Errorf("profile pass %d: has Mem=%v instrs=%d, want nil Mem and counters", pass, prof.Result.Mem != nil, prof.Result.Instrs)
		}
	}
}

// layoutDependent builds a program whose control flow depends on where the
// data object g is placed: main loops once per MiB of g's address, so it
// loops twice with g in main memory and not at all with g at the bottom
// of the scratchpad.
func layoutDependent(t *testing.T) *obj.Program {
	t.Helper()
	b := asm.NewBuilder("main")
	loop, done := b.Label(), b.Label()
	b.LoadAddr(1, "g", 0)
	b.Op(arm.Instr{Op: arm.OpLdrImm, Rd: 0, Rs: 1, Imm: 0})
	b.Op(arm.Instr{Op: arm.OpLsrImm, Rd: 2, Rs: 1, Imm: 20})
	b.Bind(loop)
	b.Op(arm.Instr{Op: arm.OpCmpImm, Rd: 2, Imm: 0})
	b.Branch(arm.CondEQ, done)
	b.Op(arm.Instr{Op: arm.OpSubImm8, Rd: 2, Imm: 1})
	b.Op(arm.Instr{Op: arm.OpAddImm8, Rd: 0, Imm: 1})
	b.Jump(loop)
	b.Bind(done)
	b.Op(arm.Instr{Op: arm.OpBx, Rs: arm.LR})
	mainObj, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	crt, err := asm.Crt0("main")
	if err != nil {
		t.Fatal(err)
	}
	word := func(name string) *obj.Object {
		return &obj.Object{Name: name, Kind: obj.Data, Align: 4, ElemWidth: 4, Data: []byte{5, 0, 0, 0}}
	}
	return &obj.Program{Objects: []*obj.Object{crt, mainObj, word("g"), word("h")}, Entry: "__start", Main: "main"}
}

// TestDeriveGuardFallsBack: the first derived placement of a program whose
// behaviour depends on its layout mismatches its real run. That request
// and every later one must return the real simulation's result, with one
// fallback counted and nothing derived.
func TestDeriveGuardFallsBack(t *testing.T) {
	const bench = "layout-dependent"
	prog := layoutDependent(t)
	p := pipeline.NewNamed(prog, bench)
	derived0 := obs.Default.CounterTotal("wcetlab_sim_derived_total", "bench", bench)
	fallbacks0 := obs.Default.CounterTotal("wcetlab_sim_derive_fallbacks_total", "bench", bench)
	for _, in := range []map[string]bool{{"g": true}, {"h": true}, {"main": true}, nil} {
		got, err := p.Simulate(context.Background(), 64, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		exe, err := link.Link(prog, 64, in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(exe, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.ExitCode != want.ExitCode {
			t.Errorf("%v: served %+v, simulated %+v", in, got, want)
		}
	}
	s := p.Stats()
	if s.Sims != 4 || s.SimsDerived != 0 || s.SimDeriveFallbacks != 1 {
		t.Errorf("sims=%d derived=%d fallbacks=%d, want 4/0/1", s.Sims, s.SimsDerived, s.SimDeriveFallbacks)
	}
	if d := obs.Default.CounterTotal("wcetlab_sim_derived_total", "bench", bench) - derived0; d != 0 {
		t.Errorf("wcetlab_sim_derived_total moved by %d, want 0", d)
	}
	if d := obs.Default.CounterTotal("wcetlab_sim_derive_fallbacks_total", "bench", bench) - fallbacks0; d != 1 {
		t.Errorf("wcetlab_sim_derive_fallbacks_total moved by %d, want 1", d)
	}
}

// TestDeriveCheckSingleflight: concurrent requests for distinct scratchpad
// placements wait for the one exactness check, then are all derived.
func TestDeriveCheckSingleflight(t *testing.T) {
	p := compile(t)
	placements := []map[string]bool{
		{"a": true}, {"suma": true}, {"main": true}, {"a": true, "suma": true},
		{"a": true, "main": true}, {"suma": true, "main": true}, {"a": true, "suma": true, "main": true},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(placements))
	for i, in := range placements {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = p.Simulate(context.Background(), 1024, in, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%v: %v", placements[i], err)
		}
	}
	s := p.Stats()
	if s.Sims != 1 || s.SimsDerived != uint64(len(placements)-1) || s.SimDeriveFallbacks != 0 {
		t.Errorf("sims=%d derived=%d fallbacks=%d, want 1/%d/0", s.Sims, s.SimsDerived, s.SimDeriveFallbacks, len(placements)-1)
	}
	if s.SimTime <= 0 {
		t.Error("the check run's wall clock is not accounted")
	}
}

// TestDerivedSimulationObservability: a derived result is counted apart
// from real runs, adds no simulation wall clock, and marks its span
// tier=derived. The empty placement is the profile's own run and needs no
// exactness check.
func TestDerivedSimulationObservability(t *testing.T) {
	p := compile(t)
	obs.DefaultTracer.Enable()
	defer obs.DefaultTracer.Disable()
	res, err := p.Simulate(context.Background(), 512, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Profile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if *res != *prof.Result {
		t.Errorf("empty placement served %+v, the profile ran %+v", res, prof.Result)
	}
	s := p.Stats()
	if s.Sims != 0 || s.SimsDerived != 1 || s.SimTime != 0 {
		t.Errorf("sims=%d derived=%d sim time=%v, want 0/1/0", s.Sims, s.SimsDerived, s.SimTime)
	}
	var tiers []any // the last tier each stage:simulate span set
	for _, d := range obs.DefaultTracer.Spans() {
		if d.Name != "stage:simulate" {
			continue
		}
		var tier any
		for _, a := range d.Attrs {
			if a.Key == "tier" {
				tier = a.Value
			}
		}
		tiers = append(tiers, tier)
	}
	if len(tiers) != 1 || tiers[0] != "derived" {
		t.Errorf("stage:simulate span tiers %v, want [derived]", tiers)
	}
}

// TestCacheLadderSingleflight: concurrent requests for every paper size of
// one direct-mapped cache shape make one real run, the ladder, and read
// every other size off it, each equal to a real run with that cache. The
// ladder run's span is tier=compute and every other size's tier=derived.
func TestCacheLadderSingleflight(t *testing.T) {
	p := compile(t)
	exe, err := p.Link(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	obs.DefaultTracer.Enable()
	defer obs.DefaultTracer.Disable()
	sizes := []uint32{64, 128, 256, 512, 1024, 2048, 4096, 8192}
	var wg sync.WaitGroup
	got := make([]*sim.Result, len(sizes))
	errs := make([]error, len(sizes))
	for i, size := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.Simulate(context.Background(), 0, nil, &cache.Config{Size: size, Assoc: 1})
		}()
	}
	wg.Wait()
	for i, size := range sizes {
		if errs[i] != nil {
			t.Fatalf("size %d: %v", size, errs[i])
		}
		want, err := sim.Run(exe, sim.Options{Cache: &cache.Config{Size: size, Assoc: 1}})
		if err != nil {
			t.Fatal(err)
		}
		want.Mem = nil
		if *got[i] != *want {
			t.Errorf("size %d: served %+v, simulated %+v", size, got[i], want)
		}
	}
	s := p.Stats()
	if s.Sims != 1 || s.SimsDerived != uint64(len(sizes)-1) {
		t.Errorf("sims=%d derived=%d, want 1/%d", s.Sims, s.SimsDerived, len(sizes)-1)
	}
	tiers := map[any]int{}
	for _, d := range obs.DefaultTracer.Spans() {
		if d.Name != "stage:simulate" {
			continue
		}
		var tier any
		for _, a := range d.Attrs {
			if a.Key == "tier" {
				tier = a.Value
			}
		}
		tiers[tier]++
	}
	if tiers["compute"] != 1 || tiers["derived"] != len(sizes)-1 {
		t.Errorf("stage:simulate span tiers %v, want 1 compute and %d derived", tiers, len(sizes)-1)
	}
}

// TestCacheLadderServesDirectMappedOnly: set-associative configurations
// still run once each, and a configuration the cache model rejects fails
// with the model's own error, as a real run does.
func TestCacheLadderServesDirectMappedOnly(t *testing.T) {
	p := compile(t)
	for _, cfg := range []cache.Config{{Size: 512, Assoc: 2}, {Size: 1024, Assoc: 2}} {
		if _, err := p.Simulate(context.Background(), 0, nil, &cfg); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Stats(); s.Sims != 2 || s.SimsDerived != 0 {
		t.Errorf("two 2-way sizes: sims=%d derived=%d, want 2/0", s.Sims, s.SimsDerived)
	}
	bad := cache.Config{Size: 2 * cache.MaxSize, Assoc: 1}
	_, err := p.Simulate(context.Background(), 0, nil, &bad)
	if want := bad.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("size %d: error %v, want %v", bad.Size, err, want)
	}
}
