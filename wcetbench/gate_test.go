package main

import (
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/benchprog"
	"repro/internal/core"
)

func TestGenerate(t *testing.T) {
	for name, w := range workloads {
		for iter := 0; iter < 3; iter++ {
			cfgs := generate(w, 7, iter)
			if !reflect.DeepEqual(cfgs, generate(w, 7, iter)) {
				t.Fatalf("%s: the same seed generated different configurations", name)
			}
			if reflect.DeepEqual(cfgs, generate(w, 8, iter)) {
				t.Fatalf("%s: seeds 7 and 8 generated the same configurations", name)
			}
			seen := map[string]bool{}
			paper := 0
			for _, c := range cfgs {
				if seen[c.String()] {
					t.Fatalf("%s: %s generated twice", name, c)
				}
				seen[c.String()] = true
				if c.Paper {
					paper++
				}
				if c.Size < minCapacity || c.Size > maxCapacity || c.Size%4 != 0 {
					t.Fatalf("%s: capacity out of range: %s", name, c)
				}
			}
			if want := len(benchprog.All()) * len(core.PaperSizes); paper != want {
				t.Fatalf("%s: %d paper rows, want %d", name, paper, want)
			}
		}
	}
}

// TestGateCountsPerturbations measures real configurations, then shows the
// gate passing them as measured and counting each perturbed bound or
// simulated cycle count as a failure.
func TestGateCountsPerturbations(t *testing.T) {
	g, err := newGate("..")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchprog.ByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		workload string
		c        config
	}{
		{"spm_sweep", config{Bench: b.Name, Kind: "spm", Size: 300, SimCheck: true}},
		{"spm_sweep", config{Bench: b.Name, Kind: "spm", Size: 256, Paper: true}},
		{"cache_sweep", config{Bench: b.Name, Kind: "cache", Size: 512, Assoc: 2, SimCheck: true}},
		{"cache_sweep", config{Bench: b.Name, Kind: "cache", Size: 1024, Assoc: 1, Paper: true}},
	}
	for _, tc := range cases {
		w := workloads[tc.workload]
		raw, err := w.measure(ctx, lab, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		m := raw.(core.Measurement)
		failures := func(m core.Measurement) int {
			r := &runner{w: w, gate: g, stderr: io.Discard, ref: map[string]*outcome{}}
			r.check(ctx, oneConfig(lab, tc.c, m))
			return r.failed
		}
		sims := lab.Pipe.Stats().Sims
		if n := failures(m); n != 0 {
			t.Fatalf("%s: unperturbed measurement failed the gate", tc.c)
		}
		if s := lab.Pipe.Stats().Sims; s != sims {
			t.Fatalf("%s: reading the outcome ran %d simulations, want memo hits only", tc.c, s-sims)
		}
		bound, cycles := m, m
		bound.WCET++
		cycles.SimCycles++
		if n := failures(bound); n != 1 {
			t.Errorf("%s: perturbed bound counted %d failures, want 1", tc.c, n)
		}
		if n := failures(cycles); n != 1 {
			t.Errorf("%s: perturbed simulated cycles counted %d failures, want 1", tc.c, n)
		}
	}
}

// oneConfig is an iteration of one measured configuration on lab.
func oneConfig(lab *core.Lab, c config, raw any) *iteration {
	it := newIteration([]config{c}, 1)
	it.labs[lab.Bench.Name] = lab
	it.raws[0] = raw
	it.stats = sumStats(it.labs)
	return it
}

// TestGateCountsParetoPerturbations shows the gate passing a paper-size
// front (a two-point one; every ADPCM paper-size front has one point) as
// measured, and counting each perturbation as one failure. The same front
// is checked once as a paper row and once as an extra, so that each check
// is shown failing without the golden rows catching it first.
func TestGateCountsParetoPerturbations(t *testing.T) {
	g, err := newGate("..")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchprog.ByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	w := workloads["pareto_front"]
	raw, err := w.measure(ctx, lab, config{Bench: b.Name, Kind: "pareto", Size: 1024})
	if err != nil {
		t.Fatal(err)
	}
	f := raw.(core.ParetoFrontAt)
	if len(f.Points) < 2 {
		t.Fatalf("front of %d points, want at least 2", len(f.Points))
	}
	perturb := func(change func([]alloc.ParetoPoint)) core.ParetoFrontAt {
		p := f
		p.Points = append([]alloc.ParetoPoint(nil), f.Points...)
		change(p.Points)
		return p
	}
	for _, paper := range []bool{true, false} {
		c := config{Bench: b.Name, Kind: "pareto", Size: 1024, Paper: paper}
		failures := func(f core.ParetoFrontAt) int {
			r := &runner{w: w, gate: g, stderr: io.Discard, ref: map[string]*outcome{}}
			r.check(ctx, oneConfig(lab, c, f))
			return r.failed
		}
		if n := failures(f); n != 0 {
			t.Fatalf("%s: unperturbed front failed the gate", c)
		}
		if n := failures(perturb(func(p []alloc.ParetoPoint) { p[0].WCET++ })); n != 1 {
			t.Errorf("%s: perturbed front bound counted %d failures, want 1", c, n)
		}
		if n := failures(perturb(func(p []alloc.ParetoPoint) { p[0], p[1] = p[1], p[0] })); n != 1 {
			t.Errorf("%s: swapped front points counted %d failures, want 1", c, n)
		}
		// The energy-directed bound is read from the pipeline, not from
		// the measurement, so it is perturbed in the outcome: above the
		// golden row on a paper row, below the tightest bound on an extra.
		o, err := w.finish(ctx, lab, c, f)
		if err != nil {
			t.Fatal(err)
		}
		if paper {
			o.EnergyWCET++
		} else {
			o.EnergyWCET = o.Front[0].WCET - 1
		}
		if g.check(lab, c, o) == nil {
			t.Errorf("%s: perturbed energy-directed bound %d passed the gate", c, o.EnergyWCET)
		}
	}
}

// TestGateCountsWarmIteration checks that an iteration that was not cold
// fails every configuration in it.
func TestGateCountsWarmIteration(t *testing.T) {
	g, err := newGate("..")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchprog.ByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(b)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads["cache_sweep"]
	c := config{Bench: b.Name, Kind: "icache", Size: 256}
	raw, err := w.measure(context.Background(), lab, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []func(*iteration){
		func(it *iteration) { it.stats.Profiles = 0 },
		func(it *iteration) { it.stats.SimDiskHits = 1 },
	} {
		r := &runner{w: w, gate: g, stderr: io.Discard, ref: map[string]*outcome{}}
		it := oneConfig(lab, c, raw)
		warm(it)
		r.check(context.Background(), it)
		if r.failed != 1 {
			t.Errorf("warm iteration counted %d failures, want 1", r.failed)
		}
	}
}

// TestGateCountsDrift checks that a configuration whose later measurement
// differs from its verified first one counts as a failure.
func TestGateCountsDrift(t *testing.T) {
	g, err := newGate("..")
	if err != nil {
		t.Fatal(err)
	}
	b, err := benchprog.ByName("ADPCM")
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(b)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads["cache_sweep"]
	c := config{Bench: b.Name, Kind: "icache", Size: 256}
	raw, err := w.measure(context.Background(), lab, c)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, gate: g, stderr: io.Discard, ref: map[string]*outcome{}}
	for i, delta := range []uint64{0, 0, 1} {
		m := raw.(core.Measurement)
		m.CacheHits += delta
		r.check(context.Background(), oneConfig(lab, c, m))
		if want := int(delta); r.failed != want {
			t.Fatalf("after measurement %d: %d failures, want %d", i, r.failed, want)
		}
	}
}
