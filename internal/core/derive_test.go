package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/link"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// TestDeriveExactOnServedPlacements: every scratchpad placement the sweeps
// serve without a cache is priced from the Lab's profile (sim.Derive), so
// for every served benchmark the derived result must equal a real run of
// the placed link. The placements are both allocators' choices at every
// paper size plus seeded random resident sets that fit the largest
// scratchpad.
func TestDeriveExactOnServedPlacements(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			type placement struct {
				size  uint32
				inSPM map[string]bool
			}
			var placements []placement
			for _, size := range PaperSizes {
				for _, a := range []pipeline.Allocator{lab.EnergyAllocator(), lab.WCETAllocator()} {
					al, err := lab.Pipe.Allocate(ctx, a, size)
					if err != nil {
						t.Fatal(err)
					}
					placements = append(placements, placement{size, al.InSPM})
				}
			}
			rng := rand.New(rand.NewSource(20050307))
			for range 8 {
				placements = append(placements, placement{link.SPMMax, randomResidents(t, rng, lab)})
			}

			seen := map[string]bool{}
			for _, pl := range placements {
				key := pipeline.PlacementKey(pl.size, pl.inSPM)
				if seen[key] {
					continue
				}
				seen[key] = true
				exe, err := link.Link(lab.Prog, pl.size, pl.inSPM)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				want, err := sim.Run(exe, sim.Options{})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := sim.Derive(lab.Profile, exe)
				if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.ExitCode != want.ExitCode {
					t.Errorf("%s: derived cycles/instrs/exit %d/%d/%d, simulated %d/%d/%d", key,
						got.Cycles, got.Instrs, got.ExitCode, want.Cycles, want.Instrs, want.ExitCode)
				}
			}
		})
	}
}

// randomResidents draws a random non-empty set of the program's objects
// that links into a scratchpad of link.SPMMax bytes.
func randomResidents(t *testing.T, rng *rand.Rand, lab *Lab) map[string]bool {
	t.Helper()
	objs := lab.Prog.Objects
	for {
		in := map[string]bool{}
		for _, i := range rng.Perm(len(objs)) {
			if rng.Intn(2) == 0 {
				continue
			}
			in[objs[i].Name] = true
			if _, err := link.Link(lab.Prog, link.SPMMax, in); err != nil {
				delete(in, objs[i].Name)
			}
		}
		if len(in) > 0 {
			return in
		}
	}
}

// TestScratchpadSweepSimulatesOnce: a cold scratchpad sweep of a
// layout-invariant benchmark makes one real simulation, the exactness
// check, and derives every other placement from the profile.
func TestScratchpadSweepSimulatesOnce(t *testing.T) {
	lab, err := NewLabByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := lab.SweepScratchpad(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := lab.Pipe.Stats()
	if s.Sims != 1 || s.SimDeriveFallbacks != 0 || s.SimsDerived == 0 {
		t.Errorf("cold sweep: sims=%d derived=%d fallbacks=%d, want 1/>0/0",
			s.Sims, s.SimsDerived, s.SimDeriveFallbacks)
	}
	if s.Sims+s.SimsDerived > uint64(len(ms)) {
		t.Errorf("cold sweep of %d sizes made %d simulations", len(ms), s.Sims+s.SimsDerived)
	}
}

// TestCacheLadderExactOnServedConfigs: every direct-mapped cache
// configuration is served from one ladder run per placement, line size and
// kind, so for every served benchmark, at every valid direct-mapped size of
// both kinds, the served result must equal a real run with that cache. The
// placements are the empty scratchpad and the energy allocation at the
// largest paper size, whose scratchpad accesses bypass the cache.
func TestCacheLadderExactOnServedConfigs(t *testing.T) {
	for _, b := range append(benchprog.All(), benchprog.WorstCaseSort) {
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			spm := PaperSizes[len(PaperSizes)-1]
			al, err := lab.Pipe.Allocate(ctx, lab.EnergyAllocator(), spm)
			if err != nil {
				t.Fatal(err)
			}
			if len(al.InSPM) == 0 {
				t.Fatalf("energy allocation at %d places nothing", spm)
			}
			for _, pl := range []struct {
				size  uint32
				inSPM map[string]bool
			}{{0, nil}, {spm, al.InSPM}} {
				exe, err := link.Link(lab.Prog, pl.size, pl.inSPM)
				if err != nil {
					t.Fatal(err)
				}
				for _, icache := range []bool{false, true} {
					for size := uint32(cache.DefaultLineSize); size <= cache.MaxSize; size *= 2 {
						cfg := cache.Config{Size: size, Assoc: 1, InstructionOnly: icache}
						name := fmt.Sprintf("%s|%d/icache=%v", pipeline.PlacementKey(pl.size, pl.inSPM), size, icache)
						want, err := sim.Run(exe, sim.Options{Cache: &cfg})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := lab.Pipe.Simulate(ctx, pl.size, pl.inSPM, &cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got.Cycles != want.Cycles || got.Instrs != want.Instrs || got.CacheHits != want.CacheHits ||
							got.CacheMisses != want.CacheMisses || got.ExitCode != want.ExitCode {
							t.Errorf("%s: served cycles/instrs/hits/misses/exit %d/%d/%d/%d/%d, simulated %d/%d/%d/%d/%d",
								name, got.Cycles, got.Instrs, got.CacheHits, got.CacheMisses, got.ExitCode,
								want.Cycles, want.Instrs, want.CacheHits, want.CacheMisses, want.ExitCode)
						}
					}
				}
			}
			// One ladder run per placement and kind; every other size is
			// read off it.
			if s := lab.Pipe.Stats(); s.Sims != 4 {
				t.Errorf("sims=%d, want one ladder run per placement and kind (4)", s.Sims)
			}
		})
	}
}

// TestCacheSweepSimulatesOnce: a cold direct-mapped cache sweep makes one
// real simulation, the ladder run, and reads every other size off it.
func TestCacheSweepSimulatesOnce(t *testing.T) {
	lab, err := NewLabByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := lab.SweepCache(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := lab.Pipe.Stats()
	if s.Sims != 1 || s.SimsDerived != uint64(len(ms)-1) {
		t.Errorf("cold sweep of %d sizes: sims=%d derived=%d, want 1/%d", len(ms), s.Sims, s.SimsDerived, len(ms)-1)
	}
}
