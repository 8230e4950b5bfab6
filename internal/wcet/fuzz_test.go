package wcet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
	"repro/internal/sim"
)

// genLoopProgram emits a random but always-terminating MiniC program with
// data-dependent control flow inside bounded loops, exercising the whole
// pipeline: compiler, flow facts, IPET and (optionally) cache analysis.
func genLoopProgram(rng *rand.Rand) string {
	n := 8 + rng.Intn(24) // array length
	iters := 5 + rng.Intn(40)
	var sb strings.Builder
	fmt.Fprintf(&sb, "int tbl[%d] = {", n)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", rng.Intn(2001)-1000)
	}
	sb.WriteString("};\n")
	fmt.Fprintf(&sb, "int bias = %d;\n", rng.Intn(100))
	sb.WriteString(`
int mix(int a, int b) {
    int r = a ^ (b << 1);
    if (r < 0) r = -r;
    return r + bias;
}
`)
	sb.WriteString("int main() {\n    int acc = 0;\n")
	fmt.Fprintf(&sb, "    for (int i = 0; i < %d; i += 1) {\n", iters)
	fmt.Fprintf(&sb, "        int v = tbl[i %% %d];\n", n)
	switch rng.Intn(3) {
	case 0:
		fmt.Fprintf(&sb, "        if (v > %d) acc += mix(v, i); else acc -= v;\n", rng.Intn(500)-250)
	case 1:
		sb.WriteString("        if (v % 3 == 0) acc += v; else if (v % 3 == 1) acc -= v; else acc ^= v;\n")
	default:
		fmt.Fprintf(&sb, "        acc += v > acc ? mix(v, acc & 15) : (v - acc) %% 97;\n")
	}
	// Occasionally add a nested bounded inner loop.
	if rng.Intn(2) == 0 {
		inner := 2 + rng.Intn(6)
		fmt.Fprintf(&sb, "        for (int j = 0; j < %d; j += 1) acc += tbl[j %% %d] & 7;\n", inner, n)
	}
	sb.WriteString("    }\n    return acc;\n}\n")
	return sb.String()
}

// TestFuzzSoundnessAcrossConfigs: for random programs and every memory
// configuration, the WCET bound must cover the simulation, the program
// result must be configuration-independent, and the incremental analysis
// engine — one per cache shape, reused across the trial's configurations —
// must return exactly what a from-scratch Analyze of the placed link does.
func TestFuzzSoundnessAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(20050307))
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		src := genLoopProgram(rng)
		prog, err := cc.Compile(src)
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}

		type config struct {
			name  string
			spm   uint32
			inSPM map[string]bool
			cache *cache.Config
		}
		configs := []config{
			{name: "plain"},
			{name: "spm-code", spm: 2048, inSPM: map[string]bool{"main": true, "mix": true}},
			{name: "spm-data", spm: 2048, inSPM: map[string]bool{"tbl": true, "bias": true}},
			{name: "cache-128", cache: &cache.Config{Size: 128}},
			{name: "cache-1k-2way", cache: &cache.Config{Size: 1024, Assoc: 2}},
			{name: "icache-512", cache: &cache.Config{Size: 512, InstructionOnly: true}},
		}
		base, err := link.Link(prog, 0, nil)
		if err != nil {
			t.Fatalf("trial %d: base link: %v", trial, err)
		}
		// Engines by cache shape (Size zeroed); the zero Config keys the
		// engine without a cache domain.
		engines := make(map[cache.Config]*Context)
		var wantExit uint32
		for ci, cfg := range configs {
			exe, err := link.Link(prog, cfg.spm, cfg.inSPM)
			if err != nil {
				t.Fatalf("trial %d %s: link: %v", trial, cfg.name, err)
			}
			res, err := sim.Run(exe, sim.Options{Cache: cfg.cache, MaxInstrs: 20_000_000})
			if err != nil {
				t.Fatalf("trial %d %s: run: %v\n%s", trial, cfg.name, err, src)
			}
			if ci == 0 {
				wantExit = res.ExitCode
			} else if res.ExitCode != wantExit {
				t.Fatalf("trial %d %s: result %d differs from plain %d — memory config changed semantics\n%s",
					trial, cfg.name, res.ExitCode, wantExit, src)
			}
			wres, err := Analyze(exe, Options{Cache: cfg.cache, StackBound: 512, Witness: true})
			if err != nil {
				t.Fatalf("trial %d %s: analyse: %v\n%s", trial, cfg.name, err, src)
			}
			var shape cache.Config
			var cacheSize uint32
			if cfg.cache != nil {
				shape, cacheSize = cfg.cache.WithDefaults(), cfg.cache.Size
				shape.Size = 0
			}
			eng := engines[shape]
			if eng == nil {
				if eng, err = NewContext(base, Options{Cache: cfg.cache, StackBound: 512}); err != nil {
					t.Fatalf("trial %d %s: engine: %v\n%s", trial, cfg.name, err, src)
				}
				engines[shape] = eng
			}
			inc, err := eng.Analyze(cacheSize, cfg.spm, cfg.inSPM, true)
			if err != nil {
				t.Fatalf("trial %d %s: incremental: %v\n%s", trial, cfg.name, err, src)
			}
			if !reflect.DeepEqual(inc, wres) {
				t.Fatalf("trial %d %s: incremental %+v != from-scratch %+v\n%s",
					trial, cfg.name, inc, wres, src)
			}
			if wres.WCET < res.Cycles {
				t.Fatalf("trial %d %s: UNSOUND: WCET %d < sim %d\n%s",
					trial, cfg.name, wres.WCET, res.Cycles, src)
			}
		}
	}
}
