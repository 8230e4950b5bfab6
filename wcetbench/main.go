// Command wcetbench is the repository's end-to-end benchmark. It runs one
// cold, seeded, closed-loop workload through core.Lab's public
// per-configuration calls, checks every result, and prints one JSON line:
//
//	wcetbench --workload spm_sweep|cache_sweep|pareto_front --seed N --seconds S --trace 0|1
//
// Each iteration builds fresh store-less Labs for the three Table 2
// programs (timed on its own as set-up), then measures every generated
// configuration on a pool of nproc workers, each taking the next
// configuration only when its previous one finishes. With --trace 0 the
// line carries the end-to-end metrics; with --trace 1 it carries the
// per-layer split of a separate sequential traced iteration (trace.go).
// README.md lists every metric with its unit, direction and layer.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchprog"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// minIters is the fewest timed iterations a run makes, so every median has
// at least this many values.
const minIters = 3

// runCap stops a run from starting another iteration after this long, so a
// slow machine still exits well within its time limit.
const runCap = 100 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wcetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "spm_sweep", "spm_sweep, cache_sweep or pareto_front")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed generates the same configurations")
	seconds := fs.Float64("seconds", 10, "measure at least this long (and at least 3 iterations)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	recordDir := fs.String("record-dir", "", "also write the run record (environment, configurations, iterations) here")
	commit := fs.String("commit", "", "source commit, recorded for replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "wcetbench: bad arguments (workloads: spm_sweep, cache_sweep, pareto_front; --trace 0|1)\n")
		return 2
	}
	g, err := newGate(".")
	if err != nil {
		fmt.Fprintf(stderr, "wcetbench: reference data: %v\n", err)
		return 1
	}
	r := &runner{w: w, gate: g, seed: *seed, stderr: stderr, ref: map[string]*outcome{}}
	rec := newRecord(".", *commit, w.name, *seed, *traceFlag)
	budget := time.Duration(*seconds * float64(time.Second))

	var metrics map[string]metric
	if *traceFlag == 0 {
		metrics, err = r.endToEnd(budget, rec)
	} else {
		metrics, err = r.perLayer(budget, rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wcetbench: %v\n", err)
		return 1
	}
	rec.Metrics = metrics
	rec.Attempted, rec.Failed = r.attempted, r.failed
	if err := rec.write(stderr, *recordDir); err != nil {
		fmt.Fprintf(stderr, "wcetbench: record: %v\n", err)
		return 1
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "wcetbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner holds one run's verified first outcomes and failure count.
type runner struct {
	w      workload
	gate   *gate
	seed   uint64
	stderr io.Writer
	// ref holds each configuration's first outcome that passed the gate;
	// later measurements of it must reproduce it exactly.
	ref               map[string]*outcome
	attempted, failed int
}

// iteration is one cold pass over one generated configuration list.
type iteration struct {
	cfgs     []config
	labs     map[string]*core.Lab
	raws     []any
	errs     []error
	lat      []time.Duration
	setup    time.Duration
	wall     time.Duration // the sweep after set-up
	workers  int
	busy     time.Duration // worker time spent inside configurations
	retained uint64        // live heap after the sweep, Labs still reachable
	stats    pipeline.Stats
	traced   bool
}

func newIteration(cfgs []config, workers int) *iteration {
	return &iteration{
		cfgs: cfgs, labs: map[string]*core.Lab{}, workers: workers,
		raws: make([]any, len(cfgs)), errs: make([]error, len(cfgs)), lat: make([]time.Duration, len(cfgs)),
	}
}

// release drops the iteration's Labs and results once they are checked, so
// no iteration's memory outlives it.
func (it *iteration) release() { it.labs, it.raws = nil, nil }

// iterate builds fresh Labs and measures every configuration on a
// closed-loop pool of the given number of workers. Given a tracer, it makes
// the same calls sequentially (workers must be 1) under the tracer.
func (r *runner) iterate(ctx context.Context, cfgs []config, workers int, t *tracer) (*iteration, error) {
	newLab, measure := core.NewLab, r.w.measure
	if t != nil {
		newLab = t.newLab
		measure = func(ctx context.Context, lab *core.Lab, c config) (any, error) { return t.measure(ctx, r.w, lab, c) }
	}
	runtime.GC()
	it := newIteration(cfgs, workers)
	it.traced = t != nil
	t0 := time.Now()
	for _, b := range benchprog.All() {
		lab, err := newLab(b)
		if err != nil {
			return nil, err
		}
		it.labs[b.Name] = lab
	}
	it.setup = time.Since(t0)
	var next atomic.Int64
	busy := make([]time.Duration, workers)
	var wg sync.WaitGroup
	t1 := time.Now()
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				c := cfgs[i]
				ts := time.Now()
				it.raws[i], it.errs[i] = measure(ctx, it.labs[c.Bench], c)
				it.lat[i] = time.Since(ts)
				busy[k] += it.lat[i]
			}
		}()
	}
	wg.Wait()
	it.wall = time.Since(t1)
	for _, b := range busy {
		it.busy += b
	}
	it.stats = sumStats(it.labs)
	it.retained = retainedHeap()
	return it, nil
}

// retainedHeap collects garbage and returns the live heap: with an
// iteration's Labs still reachable, the memory they hold. Unlike a peak
// (resident set or live heap at whichever collection happens to run during
// the sweep, both of which move ±20% from run to run), it does not depend on
// collector timing.
func retainedHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sumStats(labs map[string]*core.Lab) pipeline.Stats {
	var s pipeline.Stats
	for _, lab := range labs {
		s.Add(lab.Pipe.Stats())
	}
	return s
}

// check gates every configuration of an iteration, outside the timed
// region: an error or a failed check counts against failed, never aborts.
// A configuration's first passing outcome goes through the full gate;
// later ones must equal it exactly.
func (r *runner) check(ctx context.Context, it *iteration) {
	warm := it.warm()
	for i, c := range it.cfgs {
		r.attempted++
		err := it.errs[i]
		if err == nil {
			err = warm
		}
		if err == nil {
			err = r.checkOne(ctx, it, i)
		}
		if err != nil {
			r.failed++
			if r.failed <= 10 {
				fmt.Fprintf(r.stderr, "wcetbench: FAIL %s: %v\n", c, err)
			}
		}
	}
}

// warm reports an iteration that was not cold, which fails all its
// configurations: each fresh Lab profiles its program exactly once, and
// nothing comes from a disk tier.
func (it *iteration) warm() error {
	s := it.stats
	if s.Profiles != uint64(len(it.labs)) || s.DiskHits() != 0 {
		return fmt.Errorf("iteration not cold: %d profiles for %d programs, %d disk hits", s.Profiles, len(it.labs), s.DiskHits())
	}
	return nil
}

func (r *runner) checkOne(ctx context.Context, it *iteration, i int) error {
	c := it.cfgs[i]
	lab := it.labs[c.Bench]
	o, err := r.w.finish(ctx, lab, c, it.raws[i])
	if err != nil {
		return err
	}
	if ref := r.ref[c.String()]; ref != nil {
		if !reflect.DeepEqual(o, *ref) {
			return fmt.Errorf("outcome differs from the configuration's first measurement")
		}
		return nil
	}
	if err := r.gate.check(lab, c, o); err != nil {
		return err
	}
	r.ref[c.String()] = &o
	return nil
}

// timedLoop runs untraced iterations on the pool until budget is measured
// (and at least min iterations), gating each. Iteration j measures
// generate(seed, j).
func (r *runner) timedLoop(ctx context.Context, budget time.Duration, min int, workers int, rec *record) ([]*iteration, error) {
	start := time.Now()
	var its []*iteration
	var measured time.Duration
	for len(its) < min || (measured < budget && time.Since(start) < runCap) {
		it, err := r.iterate(ctx, generate(r.w, r.seed, len(its)), workers, nil)
		if err != nil {
			return nil, err
		}
		r.check(ctx, it)
		rec.add(it)
		it.release()
		its = append(its, it)
		measured += it.setup + it.wall
	}
	return its, nil
}

// endToEnd is the untraced run behind --trace 0.
func (r *runner) endToEnd(budget time.Duration, rec *record) (map[string]metric, error) {
	its, err := r.timedLoop(context.Background(), budget, minIters, runtime.NumCPU(), rec)
	if err != nil {
		return nil, err
	}
	var setup, lat, heap []float64
	var n int
	var wall time.Duration
	for _, it := range its {
		n += len(it.cfgs)
		wall += it.wall
		setup = append(setup, it.setup.Seconds())
		heap = append(heap, float64(it.retained)/1e6)
		for _, d := range it.lat {
			lat = append(lat, float64(d)/1e6)
		}
	}
	sort.Float64s(lat)
	fmt.Fprintf(r.stderr, "wcetbench: %s: %d iterations, config latency p50 %.3f ms, p95 %.3f ms over %d samples\n",
		r.w.name, len(its), quantile(lat, 0.5), quantile(lat, 0.95), len(lat))
	return map[string]metric{
		"configs_per_s":    {float64(n) / wall.Seconds(), "1/s"},
		"config_p50_ms":    {quantile(lat, 0.5), "ms"},
		"config_p95_ms":    {quantile(lat, 0.95), "ms"},
		"setup_s":          {median(setup), "s"},
		"retained_heap_mb": {median(heap), "MB"},
		"bound_ratio":      {r.boundRatio(), "ratio"},
	}, nil
}

// boundRatio is the workload's exact result over its verified paper-size
// rows: the geometric mean of WCET ÷ simulated cycles (the Figs. 4–5
// quantity; scratchpad rows, or the paper's direct-mapped unified caches),
// or on pareto_front of each front's tightest bound ÷ its energy-directed
// bound.
func (r *runner) boundRatio() float64 {
	var sum float64
	n := 0
	for _, c := range generate(r.w, r.seed, 0) {
		o := r.ref[c.String()]
		if !c.Paper || o == nil {
			continue
		}
		switch c.Kind {
		case "spm", "cache":
			sum += math.Log(float64(o.WCET) / float64(o.SimCycles))
		case "pareto":
			sum += math.Log(float64(o.Front[0].WCET) / float64(o.EnergyWCET))
		default:
			continue
		}
		n++
	}
	if n == 0 {
		return 0 // every paper row failed the gate; correct is false
	}
	return math.Exp(sum / float64(n))
}

// perLayer is the run behind --trace 1: untraced pool iterations for the
// pool and memo figures, then sequential iterations over iteration 0's
// configurations, untraced, traced and untraced again; the traced one gives
// the per-layer split and its wall time against the untraced ones' mean the
// tracing overhead.
func (r *runner) perLayer(budget time.Duration, rec *record) (map[string]metric, error) {
	ctx := context.Background()
	pool, err := r.timedLoop(ctx, budget/2, 2, runtime.NumCPU(), rec)
	if err != nil {
		return nil, err
	}
	// Iteration 0's list: its outcomes are verified already, and the
	// modelled statistics below depend on the seed alone.
	cfgs := generate(r.w, r.seed, 0)
	t := newTracer()
	var seqWall time.Duration
	var tr *iteration
	for k := 0; k < 3; k++ {
		var kt *tracer
		if k == 1 {
			kt = t
		}
		it, err := r.iterate(ctx, cfgs, 1, kt)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			tr = it
			t.count(ctx, r.w)
		}
		r.check(ctx, it)
		rec.add(it)
		it.release()
		if k != 1 {
			seqWall += (it.setup + it.wall) / 2
		}
	}

	var idle, linkHits, simHits, anaHits, allocHits, profHits, profRuns []float64
	samples := 0
	for _, it := range pool {
		idle = append(idle, 1-it.busy.Seconds()/(float64(it.workers)*it.wall.Seconds()))
		s := it.stats
		linkHits = append(linkHits, float64(s.LinkHits))
		simHits = append(simHits, float64(s.SimHits))
		anaHits = append(anaHits, float64(s.AnalyzeHits))
		allocHits = append(allocHits, float64(s.AllocHits))
		profHits = append(profHits, float64(s.ProfileHits))
		profRuns = append(profRuns, float64(s.Profiles))
		samples += len(it.lat)
	}
	s := tr.stats
	ms := func(layers ...string) float64 {
		var d time.Duration
		for _, l := range layers {
			d += t.ms[l]
		}
		return float64(d) / 1e6
	}
	m := map[string]metric{
		"cc.compile_ms":               {ms("cc.compile"), "ms"},
		"sim.profile_ms":              {ms("sim.profile"), "ms"},
		"sim.profile_instrs":          {float64(t.profileInstrs), "count"},
		"sim.ms":                      {ms("sim", "sim.cache"), "ms"},
		"sim.calls":                   {float64(s.Sims), "count"},
		"sim.instrs":                  {float64(t.simInstrs), "count"},
		"sim.ns_per_instr":            {ratio(ms("sim", "sim.cache")*1e6, float64(t.simInstrs)), "ns"},
		"sim.cycles":                  {float64(t.simCycles), "count"},
		"sim.cache_ms":                {ms("sim.cache"), "ms"},
		"sim.cache_ns_per_instr":      {ratio(ms("sim.cache")*1e6, float64(t.simCacheInstrs)), "ns"},
		"cache.hit_frac":              {ratio(float64(t.cacheHits), float64(t.cacheHits+t.cacheMisses)), "fraction"},
		"alloc.ms":                    {ms("alloc"), "ms"},
		"alloc.calls":                 {float64(s.Allocs), "count"},
		"wcet.ms":                     {ms("wcet", "wcet.cache"), "ms"},
		"wcet.calls":                  {float64(s.Analyses), "count"},
		"wcet.ctx_reuse_frac":         {ratio(float64(s.ContextReuses+s.CacheContextReuses), float64(s.ContextBuilds+s.ContextReuses+s.CacheContextBuilds+s.CacheContextReuses)), "fraction"},
		"wcet.solver_state_hit_frac":  {ratio(float64(s.SolverStateHits), float64(s.SolverStateHits+s.SolverStateMisses)), "fraction"},
		"wcet.cache_ms":               {ms("wcet.cache"), "ms"},
		"wcet.cache_funcs_rerun_frac": {ratio(float64(s.CacheFuncsReanalyzed), float64(s.CacheFuncs)), "fraction"},
		"link.ms":                     {ms("link"), "ms"},
		"link.calls":                  {float64(s.Links), "count"},
		"link.delta_frac":             {ratio(float64(s.DeltaLinks), float64(s.DeltaLinks+s.FullLinks)), "fraction"},
		"link.relocs_reused_frac":     {ratio(float64(s.RelocsReused), float64(s.RelocsReused+s.RelocsResolved)), "fraction"},
		"core.self_ms":                {ms("core.self"), "ms"},
		"core.mb_allocated":           {float64(t.allocated) / 1e6, "MB"},
		"core.pool_idle_frac":         {median(idle), "fraction"},
		"core.config_samples":         {float64(samples), "count"},
		"trace.overhead_frac":         {(tr.setup+tr.wall).Seconds()/seqWall.Seconds() - 1, "fraction"},
		"memo.link_hits":              {median(linkHits), "count"},
		"memo.sim_hits":               {median(simHits), "count"},
		"memo.analyze_hits":           {median(anaHits), "count"},
		"memo.alloc_hits":             {median(allocHits), "count"},
		"memo.profile_hits":           {median(profHits), "count"},
		"memo.profile_runs":           {median(profRuns), "count"},
	}
	return m, nil
}

// ratio is a/b, and 0 where b is 0: every per-layer metric is reported on
// every workload, including fractions a workload leaves undefined.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly in sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}
