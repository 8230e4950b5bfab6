package core

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// mirror is one counter that Stats shares with the registry: the series
// (name plus label pairs) and the figure Stats holds for it.
type mirror struct {
	name   string
	labels []string
	stat   uint64
}

// mirrors lists every counter s shares with the registry for one
// benchmark, in a fixed order. The context and solver series are
// process-wide, so a test comparing them must be the only analysis work in
// the process while its window is open.
func mirrors(bench string, s pipeline.Stats) []mirror {
	ms := []mirror{
		{"wcetlab_analyze_witness_upgrades_total", []string{"bench", bench}, s.AnalyzeUpgrades},
		{"wcetlab_sim_derived_total", []string{"bench", bench}, s.SimsDerived},
		{"wcetlab_sim_derive_fallbacks_total", []string{"bench", bench}, s.SimDeriveFallbacks},
		{"wcetlab_context_builds_total", nil, s.ContextBuilds},
		{"wcetlab_context_reuses_total", nil, s.ContextReuses},
		{"wcetlab_cache_context_builds_total", nil, s.CacheContextBuilds},
		{"wcetlab_cache_context_reuses_total", nil, s.CacheContextReuses},
		{"wcetlab_solver_state_hits_total", nil, s.SolverStateHits},
		{"wcetlab_solver_state_misses_total", nil, s.SolverStateMisses},
		{"wcetlab_cache_context_funcs_reanalyzed_total", nil, s.CacheFuncsReanalyzed},
		{"wcetlab_cache_context_funcs_total", nil, s.CacheFuncs},
		{"wcetlab_cache_context_must_solves_total", nil, s.MustSolves},
		{"wcetlab_cache_context_must_memo_hits_total", nil, s.MustMemoHits},
	}
	for _, st := range []struct {
		stage                               string
		runs, memHits, diskHits, diskMisses uint64
	}{
		{"link", s.Links, s.LinkHits, 0, 0},
		{"simulate", s.Sims, s.SimHits, s.SimDiskHits, s.SimDiskMisses},
		{"analyze", s.Analyses, s.AnalyzeHits, s.AnalyzeDiskHits, s.AnalyzeDiskMisses},
		{"profile", s.Profiles, s.ProfileHits, s.ProfileDiskHits, s.ProfileDiskMisses},
		{"alloc", s.Allocs, s.AllocHits, s.AllocDiskHits, s.AllocDiskMisses},
	} {
		cache := func(tier, result string) []string {
			return []string{"stage", st.stage, "tier", tier, "result", result, "bench", bench}
		}
		ms = append(ms,
			mirror{"wcetlab_stage_runs_total", []string{"stage", st.stage, "bench", bench}, st.runs},
			mirror{"wcetlab_stage_cache_total", cache("memory", "hit"), st.memHits})
		if st.stage != "link" { // links are never persisted
			ms = append(ms,
				mirror{"wcetlab_stage_cache_total", cache("disk", "hit"), st.diskHits},
				mirror{"wcetlab_stage_cache_total", cache("disk", "miss"), st.diskMisses})
		}
	}
	return ms
}

// TestMetricsMirrorStats runs parallel sweeps on a cold and then a warm
// lab sharing one artifact store, and asserts every counter Stats shares
// with the registry moved by exactly the labs' summed Stats — the
// instrumentation adds no event and loses none under concurrent workers.
func TestMetricsMirrorStats(t *testing.T) {
	const bench = "MultiSort"
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The window opens before lab construction so the profile collected
	// there is part of the delta, exactly as it is part of Stats.
	var before []uint64
	for _, m := range mirrors(bench, pipeline.Stats{}) {
		before = append(before, obs.Default.CounterTotal(m.name, m.labels...))
	}
	var total pipeline.Stats
	for _, warm := range []bool{false, true} {
		lab, err := NewLabByNameWithStore(bench, st)
		if err != nil {
			t.Fatal(err)
		}
		lab.Workers = 4
		if _, err := lab.SweepScratchpad(ctx); err != nil {
			t.Fatal(err)
		}
		if !warm {
			if _, err := lab.SweepCache(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := lab.SweepWCETAllocation(ctx); err != nil {
				t.Fatal(err)
			}
		}
		total.Add(lab.Pipe.Stats())
	}

	for i, m := range mirrors(bench, total) {
		if got := obs.Default.CounterTotal(m.name, m.labels...) - before[i]; got != m.stat {
			t.Errorf("registry %s%v moved by %d, Stats says %d", m.name, m.labels, got, m.stat)
		}
		// A layout-invariant benchmark never falls back; internal/pipeline's
		// TestDeriveGuardFallsBack moves that series.
		if m.stat == 0 && m.name != "wcetlab_sim_derive_fallbacks_total" {
			t.Errorf("Stats counted no %s%v — the check is vacuous", m.name, m.labels)
		}
	}

	// Latency histograms must hold exactly one observation per cold run.
	lat := pipeline.StageLatency(bench)
	if lat["analyze"].Count < total.Analyses {
		t.Errorf("analyze latency count %d < cold analyses %d", lat["analyze"].Count, total.Analyses)
	}
}

// TestSweepTraceHierarchy runs a traced sweep and asserts the recorded
// spans reconstruct sweep → cell → stage with stage spans strictly inside
// cell spans.
func TestSweepTraceHierarchy(t *testing.T) {
	lab, err := NewLabByName("MultiSort")
	if err != nil {
		t.Fatal(err)
	}
	lab.Workers = 4
	obs.DefaultTracer.Enable()
	defer obs.DefaultTracer.Disable()
	if _, err := lab.SweepScratchpad(context.Background()); err != nil {
		t.Fatal(err)
	}
	spans := obs.DefaultTracer.Spans()

	byID := map[uint64]obs.SpanData{}
	var sweeps, cells, stages, solves int
	for _, d := range spans {
		byID[d.ID] = d
	}
	for _, d := range spans {
		switch {
		case d.Name == "sweep":
			sweeps++
			if d.Parent != 0 {
				t.Errorf("sweep span has parent %d", d.Parent)
			}
		case d.Name == "cell":
			cells++
			if byID[d.Parent].Name != "sweep" {
				t.Errorf("cell span parented to %q, want sweep", byID[d.Parent].Name)
			}
		case len(d.Name) > 6 && d.Name[:6] == "stage:":
			stages++
			// Stage spans nest under a cell (directly or through another
			// stage/fixpoint span); walk up to the nearest cell and check
			// strict containment.
			anc := byID[d.Parent]
			for anc.Name != "" && anc.Name != "cell" && anc.Name != "sweep" {
				anc = byID[anc.Parent]
			}
			if d.Parent != 0 && anc.Name == "cell" {
				if d.Start.Before(anc.Start) || d.Start.Add(d.Dur).After(anc.Start.Add(anc.Dur)) {
					t.Errorf("stage span %s not strictly inside its cell", d.Name)
				}
			}
		case d.Name == "solve":
			solves++
		}
	}
	if sweeps == 0 || cells == 0 || stages == 0 {
		t.Fatalf("trace incomplete: %d sweeps, %d cells, %d stage spans", sweeps, cells, stages)
	}
	if cells != len(PaperSizes) {
		t.Errorf("got %d cell spans, want %d (one per capacity)", cells, len(PaperSizes))
	}
}
