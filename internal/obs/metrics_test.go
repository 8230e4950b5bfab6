package obs

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wcetlab_test_total", "help", "k", "v")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name+labels resolves to the same series regardless of pair order.
	c2 := r.Counter("wcetlab_multi_total", "help", "a", "1", "b", "2")
	c3 := r.Counter("wcetlab_multi_total", "help", "b", "2", "a", "1")
	if c2 != c3 {
		t.Fatal("label order changed series identity")
	}
	g := r.Gauge("wcetlab_test_gauge", "help")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("wcetlab_x_total", "h")
}

func TestHelpMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_x_total", "h", "k", "a")
	r.Counter("wcetlab_x_total", "h", "k", "b") // same help: a second series
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on help mismatch")
		}
	}()
	r.Counter("wcetlab_x_total", "other help", "k", "a")
}

func TestCounterTotal(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_pivots_total", "h", "mode", "warm", "bench", "a").Add(2)
	r.Counter("wcetlab_pivots_total", "h", "mode", "warm", "bench", "b").Add(3)
	r.Counter("wcetlab_pivots_total", "h", "mode", "cold", "bench", "a").Add(5)
	r.Gauge("wcetlab_depth", "h").Set(7)
	for _, tc := range []struct {
		name   string
		labels []string
		want   uint64
	}{
		{"wcetlab_pivots_total", nil, 10},
		{"wcetlab_pivots_total", []string{"mode", "warm"}, 5},
		{"wcetlab_pivots_total", []string{"bench", "a", "mode", "cold"}, 5},
		{"wcetlab_pivots_total", []string{"mode", "none"}, 0},
		{"wcetlab_absent_total", nil, 0},
		{"wcetlab_depth", nil, 0},
	} {
		if got := r.CounterTotal(tc.name, tc.labels...); got != tc.want {
			t.Errorf("CounterTotal(%s, %v) = %d, want %d", tc.name, tc.labels, got, tc.want)
		}
	}
	if got := len(r.Snapshot()); got != 2 {
		t.Errorf("reads registered families: %d families, want 2", got)
	}
}

func TestTallyWritesThrough(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wcetlab_tally_total", "h")
	a, b := NewTally(c), NewTally(c)
	a.Inc()
	b.Add(3)
	if a.Value() != 1 || b.Value() != 3 || c.Value() != 4 {
		t.Fatalf("tallies %d, %d over counter %d, want 1, 3 over 4", a.Value(), b.Value(), c.Value())
	}
	local := NewTally(nil)
	local.Add(2)
	if local.Value() != 2 {
		t.Fatalf("local tally = %d, want 2", local.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wcetlab_lat_seconds", "h", []float64{0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // first bucket
	}
	for i := 0; i < 9; i++ {
		h.Observe(0.05) // second bucket
	}
	h.Observe(5) // +Inf bucket

	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 90*0.005 + 9*0.05 + 5
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
	if s.Max != 5 {
		t.Fatalf("max = %g, want 5", s.Max)
	}
	if got := []uint64{s.Counts[0], s.Counts[1], s.Counts[2], s.Counts[3]}; got[0] != 90 || got[1] != 9 || got[2] != 0 || got[3] != 1 {
		t.Fatalf("bucket counts = %v", got)
	}
	if q := s.Quantile(0.50); q != 0.01 {
		t.Fatalf("p50 = %g, want 0.01", q)
	}
	if q := s.Quantile(0.95); q != 0.1 {
		t.Fatalf("p95 = %g, want 0.1", q)
	}
	// p99 lands on observation #99, still the second bucket; p100 is the
	// +Inf bucket and must report the exact max.
	if q := s.Quantile(0.99); q != 0.1 {
		t.Fatalf("p99 = %g, want 0.1", q)
	}
	if q := s.Quantile(1); q != 5 {
		t.Fatalf("p100 = %g, want 5", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %g, want 0", q)
	}
}

func TestQuantileCappedByMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wcetlab_cap_seconds", "h", []float64{1, 10})
	h.Observe(2) // bucket le=10, but true max is 2
	s := h.Snapshot()
	if q := s.Quantile(0.95); q != 2 {
		t.Fatalf("p95 = %g, want capped at max 2", q)
	}
}

// TestPrometheusExposition parses the writer's own output line by line:
// every sample line must be name{labels} value, histogram buckets must be
// cumulative and end at _count, and _sum must be consistent.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_runs_total", "Stage runs.", "stage", "analyze", "bench", `we"ird\`).Add(3)
	r.Gauge("wcetlab_in_flight", "In-flight requests.").Set(2)
	h := r.Histogram("wcetlab_stage_seconds", "Stage latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(7)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	types := map[string]string{}
	var lastCum = map[string]uint64{}
	sums := map[string]float64{}
	counts := map[string]uint64{}
	infs := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unbalanced label braces: %q", line)
			}
			name = key[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				base = b
				switch suf {
				case "_bucket":
					if uint64(val) < lastCum[base] {
						t.Fatalf("non-cumulative bucket in %q", line)
					}
					lastCum[base] = uint64(val)
					if strings.Contains(key, `le="+Inf"`) {
						infs[base] = uint64(val)
					}
				case "_sum":
					sums[base] = val
				case "_count":
					counts[base] = uint64(val)
				}
			}
		}
		if base == name {
			if _, ok := types[name]; !ok {
				t.Fatalf("sample %q missing TYPE line", line)
			}
		}
	}
	if types["wcetlab_runs_total"] != "counter" || types["wcetlab_in_flight"] != "gauge" || types["wcetlab_stage_seconds"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", types)
	}
	if counts["wcetlab_stage_seconds"] != 3 {
		t.Fatalf("_count = %d, want 3", counts["wcetlab_stage_seconds"])
	}
	if infs["wcetlab_stage_seconds"] != counts["wcetlab_stage_seconds"] {
		t.Fatalf("+Inf bucket %d != _count %d", infs["wcetlab_stage_seconds"], counts["wcetlab_stage_seconds"])
	}
	if want := 0.05 + 0.5 + 7; math.Abs(sums["wcetlab_stage_seconds"]-want) > 1e-9 {
		t.Fatalf("_sum = %g, want %g", sums["wcetlab_stage_seconds"], want)
	}
	if !strings.Contains(out, `bench="we\"ird\\"`) {
		t.Fatalf("label escaping missing in output:\n%s", out)
	}
}

// TestRegistryConcurrent hammers one counter and one histogram from many
// goroutines; run under -race this is the registry's race lane, and the
// exact final counts prove no increment was lost.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("wcetlab_conc_total", "h", "stage", "analyze").Inc()
				r.Histogram("wcetlab_conc_seconds", "h", nil, "stage", "analyze").Observe(float64(i%10) / 1000)
				r.Gauge("wcetlab_conc_gauge", "h").Add(1)
				r.Counter("wcetlab_conc_total", "h", "stage", fmt.Sprint("w", w)).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("wcetlab_conc_total", "h", "stage", "analyze").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("wcetlab_conc_seconds", "h", nil, "stage", "analyze").Snapshot()
	if h.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", h.Count, workers*perWorker)
	}
	var bucketSum uint64
	for _, c := range h.Counts {
		bucketSum += c
	}
	if bucketSum != h.Count {
		t.Fatalf("bucket total %d != count %d", bucketSum, h.Count)
	}
	if got := r.Gauge("wcetlab_conc_gauge", "h").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("wcetlab_b_total", "h").Inc()
	r.Counter("wcetlab_a_total", "h", "x", "2").Inc()
	r.Counter("wcetlab_a_total", "h", "x", "1").Inc()
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "wcetlab_a_total" || snap[1].Name != "wcetlab_b_total" {
		t.Fatalf("family order wrong: %+v", snap)
	}
	if snap[0].Samples[0].Label("x") != "1" || snap[0].Samples[1].Label("x") != "2" {
		t.Fatalf("sample order wrong: %+v", snap[0].Samples)
	}
}
