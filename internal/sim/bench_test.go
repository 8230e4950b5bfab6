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
// linked outside the timer, without a cache, behind the paper's 1 KiB
// direct-mapped unified cache, and feeding a unified cache ladder (every
// direct-mapped size at once, RunLadder). ns/instr is the time per
// simulated instruction.
func BenchmarkRun(b *testing.B) {
	runs := []struct {
		name string
		run  func(*link.Executable) (*Result, error)
	}{
		{"nocache", func(exe *link.Executable) (*Result, error) { return Run(exe, Options{}) }},
		{"cache1k", func(exe *link.Executable) (*Result, error) {
			return Run(exe, Options{Cache: &cache.Config{Size: 1024}})
		}},
		{"ladder", func(exe *link.Executable) (*Result, error) {
			l, err := RunLadder(exe, cache.DefaultLineSize, false)
			if err != nil {
				return nil, err
			}
			return l.run, nil
		}},
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
		for _, r := range runs {
			b.Run(bench.Name+"/"+r.name, func(b *testing.B) {
				var instrs uint64
				for i := 0; i < b.N; i++ {
					res, err := r.run(exe)
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
