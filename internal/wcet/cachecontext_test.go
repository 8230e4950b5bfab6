package wcet

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
)

// cacheCtxSrc exercises everything the cache context must replay: a shared
// helper called from two sites (interprocedural entry joins), array walks
// (range clobbers), scalar globals (exact classification), literal pools
// and a call chain deeper than one.
const cacheCtxSrc = `
int table[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
int weight = 7;
int acc = 0;

int scale(int x) { return x * weight + 100000; }

int sum(int n) {
    int s = 0;
    __loopbound(16) for (int i = 0; i < n; i += 1) s += scale(table[i]);
    return s;
}

int main() {
    acc = sum(16) + sum(8);
    return acc;
}`

func prepProg(t *testing.T, src string) *link.Executable {
	t.Helper()
	prog, err := cc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := link.Link(prog, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// TestCacheContextMatchesCold drives one cache-domain Context through a
// sweep of capacities, associativities and placements — including revisits
// that hit the memo and the layout-stable fast path — and checks every Result
// (bound, per-function bounds, classification counts, witness) is
// bit-identical to a from-scratch link + Analyze.
func TestCacheContextMatchesCold(t *testing.T) {
	pr := prepProg(t, cacheCtxSrc)

	type step struct {
		cacheSize uint32
		spmSize   uint32
		inSPM     map[string]bool
	}
	var steps []step
	for _, size := range []uint32{64, 128, 256} {
		for _, pl := range []step{
			{spmSize: 0},
			{spmSize: 512, inSPM: map[string]bool{"table": true}},
			{spmSize: 512, inSPM: map[string]bool{"scale": true, "weight": true}},
			{spmSize: 0}, // revisit: memo hit territory
		} {
			steps = append(steps, step{cacheSize: size, spmSize: pl.spmSize, inSPM: pl.inSPM})
		}
	}
	// Immediate repeat of the last step: the layout-stable fast path.
	steps = append(steps, steps[len(steps)-1])

	for _, assoc := range []int{1, 2, 4} {
		ccfg := cache.Config{Assoc: assoc}
		ctx, err := NewContext(pr, Options{Cache: &ccfg, StackBound: 256, Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		// Two passes over the sweep: the first populates the memo, the
		// second must replay entirely from it.
		var firstReanalyzed uint64
		for pass := 0; pass < 2; pass++ {
			for i, st := range steps {
				warm, err := ctx.Analyze(st.cacheSize, st.spmSize, st.inSPM, true)
				if err != nil {
					t.Fatalf("assoc %d pass %d step %d: warm: %v", assoc, pass, i, err)
				}
				if pass > 0 {
					continue // identical inputs: pass 0 already verified
				}
				exe, err := link.Link(pr.Prog, st.spmSize, st.inSPM)
				if err != nil {
					t.Fatalf("assoc %d step %d: link: %v", assoc, i, err)
				}
				cold, err := Analyze(exe, Options{
					Cache:      &cache.Config{Size: st.cacheSize, Assoc: assoc},
					StackBound: 256,
					Witness:    true,
				})
				if err != nil {
					t.Fatalf("assoc %d step %d: cold: %v", assoc, i, err)
				}
				if !reflect.DeepEqual(warm, cold) {
					t.Fatalf("assoc %d step %d (cache %d, spm %d, %v): warm %+v != cold %+v",
						assoc, i, st.cacheSize, st.spmSize, st.inSPM, warm, cold)
				}
			}
			if pass == 0 {
				firstReanalyzed = ctx.Stats().FuncsReanalyzed
				if firstReanalyzed == 0 {
					t.Fatalf("assoc %d: first pass re-analyzed nothing", assoc)
				}
				continue
			}
			// An identical second pass is pure reuse: every function solve
			// comes from the memo (or the layout-stable fast path).
			cs := ctx.Stats()
			if cs.Analyses != uint64(2*len(steps)) {
				t.Fatalf("assoc %d: analyses = %d, want %d", assoc, cs.Analyses, 2*len(steps))
			}
			if cs.FuncsReanalyzed != firstReanalyzed {
				t.Fatalf("assoc %d: second pass re-analyzed %d functions, want 0",
					assoc, cs.FuncsReanalyzed-firstReanalyzed)
			}
		}
	}
}

// TestCacheContextInstructionOnly covers the paper's instruction-cache
// variant through the context path.
func TestCacheContextInstructionOnly(t *testing.T) {
	pr := prepProg(t, cacheCtxSrc)
	ccfg := cache.Config{InstructionOnly: true}
	ctx, err := NewContext(pr, Options{Cache: &ccfg, StackBound: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint32{64, 256} {
		warm, err := ctx.Analyze(size, 0, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		exe, err := link.Link(pr.Prog, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Analyze(exe, Options{
			Cache:      &cache.Config{Size: size, InstructionOnly: true},
			StackBound: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Fatalf("size %d: warm %+v != cold %+v", size, warm, cold)
		}
	}
}

// TestCacheContextStablePlacementSkipsReanalysis pins the reuse paths of
// both domains. With a cache, an analysis under an unchanged layout and
// capacity re-runs zero functions. Without one, a placement sequence A, B,
// A serves the second A entirely from the solution memo: memo hits rise and
// no IPET program is solved.
func TestCacheContextStablePlacementSkipsReanalysis(t *testing.T) {
	pr := prepProg(t, cacheCtxSrc)
	t.Run("cache", func(t *testing.T) {
		ccfg := cache.Config{}
		ctx, err := NewContext(pr, Options{Cache: &ccfg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.Analyze(128, 0, nil, false); err != nil {
			t.Fatal(err)
		}
		before := ctx.Stats().FuncsReanalyzed
		if _, err := ctx.Analyze(128, 0, nil, false); err != nil {
			t.Fatal(err)
		}
		if after := ctx.Stats().FuncsReanalyzed; after != before {
			t.Fatalf("stable repeat re-analyzed %d functions, want 0", after-before)
		}
	})
	t.Run("none", func(t *testing.T) {
		ctx, err := NewContext(pr, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a := map[string]bool{"scale": true, "weight": true}
		b := map[string]bool{"table": true}
		for _, inSPM := range []map[string]bool{a, b} {
			if _, err := ctx.Analyze(0, 512, inSPM, false); err != nil {
				t.Fatal(err)
			}
		}
		hits, _ := ctx.StateCounts()
		solved := ctx.Stats().FuncsSolved
		res, err := ctx.Analyze(0, 512, a, true)
		if err != nil {
			t.Fatal(err)
		}
		if h, _ := ctx.StateCounts(); h == hits {
			t.Fatalf("revisiting placement A hit the solution memo 0 times")
		}
		if s := ctx.Stats().FuncsSolved; s != solved {
			t.Fatalf("revisiting placement A solved %d IPET programs, want 0", s-solved)
		}
		exe, err := link.Link(pr.Prog, 512, a)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Analyze(exe, Options{Witness: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, cold) {
			t.Fatalf("memo-served %+v != cold %+v", res, cold)
		}
	})
}

// TestCacheContextErrorsMatchLink pins error parity: the context surfaces
// the linker's placement diagnostics and the cache validation errors
// exactly as the cold path does.
func TestCacheContextErrorsMatchLink(t *testing.T) {
	pr := prepProg(t, cacheCtxSrc)
	ccfg := cache.Config{}
	ctx, err := NewContext(pr, Options{Cache: &ccfg})
	if err != nil {
		t.Fatal(err)
	}
	// Scratchpad overflow: same message as link.Link.
	_, warmErr := ctx.Analyze(128, 4, map[string]bool{"table": true}, false)
	_, coldErr := link.Link(pr.Prog, 4, map[string]bool{"table": true})
	if warmErr == nil || coldErr == nil || warmErr.Error() != coldErr.Error() {
		t.Fatalf("overflow: warm %v, cold link %v", warmErr, coldErr)
	}
	// Invalid cache size: same message as cache.Config.Validate.
	_, warmErr = ctx.Analyze(100, 0, nil, false)
	badCfg := cache.Config{Size: 100}
	coldErr = badCfg.Validate()
	if warmErr == nil || coldErr == nil || warmErr.Error() != coldErr.Error() {
		t.Fatalf("bad size: warm %v, cold validate %v", warmErr, coldErr)
	}
}
