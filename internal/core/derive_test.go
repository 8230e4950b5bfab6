package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/benchprog"
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
