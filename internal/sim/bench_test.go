package sim

import (
	"testing"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/cc"
	"repro/internal/link"
)

// BenchmarkRun measures the simulator alone: each Table 2 program runs
// cold (a fresh memory system and CPU per iteration) with its executable
// linked outside the timer, without a cache and behind the paper's 1 KiB
// direct-mapped unified cache. ns/instr is the time per simulated
// instruction.
func BenchmarkRun(b *testing.B) {
	caches := []struct {
		name string
		cfg  *cache.Config
	}{
		{"nocache", nil},
		{"cache1k", &cache.Config{Size: 1024}},
	}
	for _, bench := range benchprog.All() {
		prog, err := cc.Compile(bench.Source)
		if err != nil {
			b.Fatal(err)
		}
		exe, err := link.Link(prog, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range caches {
			b.Run(bench.Name+"/"+c.name, func(b *testing.B) {
				var instrs uint64
				for i := 0; i < b.N; i++ {
					res, err := Run(exe, Options{Cache: c.cfg})
					if err != nil {
						b.Fatal(err)
					}
					instrs += res.Instrs
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			})
		}
	}
}
