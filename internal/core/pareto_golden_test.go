package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchprog"
)

// paretoGoldenGrid is a fixed, roughly log-spaced grid of four-byte-aligned
// capacities in [64, 8192] (round(64·128^(i/31)/4)·4 for i = 0..31). Only
// two paper-size fronts have interior points, so the grid is what pins the
// ε-constraint solves.
var paretoGoldenGrid = []uint32{
	64, 76, 88, 104, 120, 140, 164, 192, 224, 260, 308, 360, 420, 488, 572, 668,
	784, 916, 1072, 1252, 1464, 1712, 2004, 2344, 2740, 3204, 3744, 4380, 5124,
	5992, 7004, 8192,
}

// paretoGoldenSizes is PaperSizes ∪ paretoGoldenGrid in ascending order.
func paretoGoldenSizes() []uint32 {
	seen := map[uint32]bool{}
	var sizes []uint32
	for _, s := range append(append([]uint32(nil), PaperSizes...), paretoGoldenGrid...) {
		if !seen[s] {
			seen[s] = true
			sizes = append(sizes, s)
		}
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return sizes
}

// TestParetoFrontGolden pins every point of the even-scan Pareto front of
// each benchmark at every paper capacity and every grid capacity: kind,
// ε budget, certified WCET, modelled energy (shortest round-tripping
// decimal, so the float is exact), occupancy, refinement rounds,
// convergence and the sorted placement, one line per point. A change to the
// knapsack solver that picks a different optimum among ties, or moves any
// ε-solve, shows up here. Regenerate with
// `go test ./internal/core -run ParetoFrontGolden -update` only for a
// deliberate, explained output change.
func TestParetoFrontGolden(t *testing.T) {
	sizes := paretoGoldenSizes()
	for _, b := range benchprog.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			lab, err := NewLab(b)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			for _, size := range sizes {
				front, err := lab.ParetoFront(context.Background(), size)
				if err != nil {
					t.Fatalf("cap %d: %v", size, err)
				}
				for _, pt := range front.Points {
					fmt.Fprintf(&buf, "cap=%d kind=%s budget=%d wcet=%d energy=%s used=%d iters=%d converged=%t spm=[%s]\n",
						size, pt.Kind, pt.Budget, pt.WCET,
						strconv.FormatFloat(pt.EnergyNJ, 'g', -1, 64),
						pt.Used, pt.Iterations, pt.Converged,
						strings.Join(sortedNames(pt.InSPM), ","))
				}
			}
			path := filepath.Join("testdata", "pareto", b.Name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				got := strings.Split(buf.String(), "\n")
				exp := strings.Split(string(want), "\n")
				for i := 0; i < len(got) || i < len(exp); i++ {
					var g, e string
					if i < len(got) {
						g = got[i]
					}
					if i < len(exp) {
						e = exp[i]
					}
					if g != e {
						t.Fatalf("Pareto fronts diverged from %s at line %d:\ngot  %s\nwant %s", path, i+1, g, e)
					}
				}
			}
		})
	}
}
