package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/benchprog"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/sim"
	"repro/internal/wcet"
)

// allFigures is the figure part of `wcetlab -store off all`, checked in as
// printed. Regenerate with
//
//	go run ./cmd/wcetlab -store off all | sed '/^Pipeline statistics/,$d' > wcetbench/testdata/all.txt
//
//go:embed testdata/all.txt
var allFigures []byte

// figureRow is one printed figure row: exact cycle counts where the figure
// prints them, otherwise the WCET/sim ratio as printed (three decimals).
type figureRow struct {
	Sim, WCET uint64
	Ratio     string
}

// goldenAlloc and goldenRow read internal/core/testdata/golden.
type goldenAlloc struct {
	WCET   uint64   `json:"wcet"`
	Energy float64  `json:"energy_nj"`
	Used   uint32   `json:"spm_used"`
	InSPM  []string `json:"in_spm"`
}

type goldenRow struct {
	SPMSize uint32      `json:"spm_size"`
	Energy  goldenAlloc `json:"energy_directed"`
	WCET    goldenAlloc `json:"wcet_directed"`
}

// gate holds the reference data every configuration is checked against.
type gate struct {
	golden  map[string]goldenRow // bench/size
	figures map[string]figureRow // bench/kind/size, kind spm or cache
}

func rowKey(bench string, size uint32) string { return fmt.Sprintf("%s/%d", bench, size) }

func figKey(bench, kind string, size uint32) string {
	return fmt.Sprintf("%s/%s/%d", bench, kind, size)
}

// newGate loads the golden rows from the repository at root and parses the
// embedded figures.
func newGate(root string) (*gate, error) {
	g := &gate{golden: map[string]goldenRow{}}
	for _, b := range benchprog.All() {
		data, err := os.ReadFile(filepath.Join(root, "internal", "core", "testdata", "golden", b.Name+".json"))
		if err != nil {
			return nil, err
		}
		var rows []goldenRow
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, fmt.Errorf("golden %s: %w", b.Name, err)
		}
		for _, r := range rows {
			g.golden[rowKey(b.Name, r.SPMSize)] = r
		}
	}
	var err error
	if g.figures, err = parseFigures(allFigures); err != nil {
		return nil, err
	}
	for _, b := range benchprog.All() {
		for _, s := range core.PaperSizes {
			_, okG := g.golden[rowKey(b.Name, s)]
			_, okS := g.figures[figKey(b.Name, "spm", s)]
			_, okC := g.figures[figKey(b.Name, "cache", s)]
			if !okG || !okS || !okC {
				return nil, fmt.Errorf("reference data lacks %s at %d B", b.Name, s)
			}
		}
	}
	return g, nil
}

// parseFigures reads the scratchpad and cache rows of Figures 3a, 3b, 5
// and 6 from a `wcetlab all` transcript.
func parseFigures(text []byte) (map[string]figureRow, error) {
	out := map[string]figureRow{}
	section := ""
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "Figure ") || strings.HasPrefix(line, "Table ") || strings.HasPrefix(line, "Precision ") {
			section = strings.SplitN(line, ":", 2)[0]
			continue
		}
		f := strings.Fields(strings.ReplaceAll(line, "|", " "))
		if len(f) < 3 {
			continue
		}
		size, err := strconv.ParseUint(f[0], 10, 32)
		if err != nil {
			continue
		}
		n := func(i int) uint64 { v, _ := strconv.ParseUint(f[i], 10, 64); return v }
		s := uint32(size)
		switch section {
		case "Figure 3a":
			out[figKey("G.721", "spm", s)] = figureRow{Sim: n(1), WCET: n(2)}
		case "Figure 3b":
			out[figKey("G.721", "cache", s)] = figureRow{Sim: n(1), WCET: n(2)}
		case "Figure 5":
			out[figKey("MultiSort", "spm", s)] = figureRow{Ratio: f[1]}
			out[figKey("MultiSort", "cache", s)] = figureRow{Ratio: f[2]}
		case "Figure 6":
			if len(f) < 7 {
				return nil, fmt.Errorf("figure 6 row %q", line)
			}
			out[figKey("ADPCM", "spm", s)] = figureRow{Sim: n(1), WCET: n(2)}
			out[figKey("ADPCM", "cache", s)] = figureRow{Sim: n(4), WCET: n(5)}
		}
	}
	return out, sc.Err()
}

// checkFigure compares a paper-size row with the printed figure.
func (g *gate) checkFigure(c config, kind string, o outcome) error {
	want := g.figures[figKey(c.Bench, kind, c.Size)]
	if want.Ratio != "" {
		if got := fmt.Sprintf("%.3f", float64(o.WCET)/float64(o.SimCycles)); got != want.Ratio {
			return fmt.Errorf("WCET/sim %s, figure prints %s", got, want.Ratio)
		}
		return nil
	}
	if o.SimCycles != want.Sim || o.WCET != want.WCET {
		return fmt.Errorf("sim %d WCET %d, figure prints sim %d WCET %d", o.SimCycles, o.WCET, want.Sim, want.WCET)
	}
	return nil
}

// check verifies one configuration's first outcome: the bound against the
// from-scratch oracle wcet.Analyze(link.Link(...)), sampled simulated
// cycles against sim.Run on a link.Link executable, and paper-size rows
// against the golden and figure files. (core.Lab's own exit and
// WCET ≥ sim checks already ran: they fail the measurement itself.)
func (g *gate) check(lab *core.Lab, c config, o outcome) error {
	switch c.Kind {
	case "spm":
		inSPM := map[string]bool{}
		for _, n := range o.InSPM {
			inSPM[n] = true
		}
		if _, err := checkOracle(lab, c.Size, inSPM, nil, o.WCET, o.SimCycles, c.SimCheck); err != nil {
			return err
		}
		if !c.Paper {
			return nil
		}
		want := g.golden[rowKey(c.Bench, c.Size)].Energy
		got := goldenAlloc{WCET: o.WCET, Energy: o.Energy, Used: o.Used, InSPM: o.InSPM}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("golden energy_directed row %+v, got %+v", want, got)
		}
		return g.checkFigure(c, "spm", o)
	case "cache", "icache":
		res, err := checkOracle(lab, 0, nil, c.cache(), o.WCET, o.SimCycles, c.SimCheck)
		if err != nil {
			return err
		}
		if res != nil {
			if res.CacheHits != o.CacheHits || res.CacheMisses != o.CacheMisses {
				return fmt.Errorf("cache hits/misses %d/%d, sim.Run gives %d/%d", o.CacheHits, o.CacheMisses, res.CacheHits, res.CacheMisses)
			}
		}
		if c.Paper && c.Kind == "cache" && c.Assoc == 1 {
			return g.checkFigure(c, "cache", o)
		}
		return nil
	case "pareto":
		if len(o.Front) == 0 {
			return fmt.Errorf("empty front")
		}
		for i, p := range o.Front {
			inSPM := map[string]bool{}
			for _, n := range p.InSPM {
				inSPM[n] = true
			}
			if _, err := checkOracle(lab, c.Size, inSPM, nil, p.WCET, 0, false); err != nil {
				return fmt.Errorf("front point %d (%s): %w", i, p.Kind, err)
			}
			if i > 0 && (p.WCET <= o.Front[i-1].WCET || p.Energy >= o.Front[i-1].Energy) {
				return fmt.Errorf("front points %d and %d are not mutually non-dominated", i-1, i)
			}
		}
		if o.Front[0].WCET > o.EnergyWCET {
			return fmt.Errorf("tightest front bound %d above the energy-directed bound %d", o.Front[0].WCET, o.EnergyWCET)
		}
		if !c.Paper {
			return nil
		}
		row := g.golden[rowKey(c.Bench, c.Size)]
		if o.Front[0].WCET != row.WCET.WCET || o.EnergyWCET != row.Energy.WCET {
			return fmt.Errorf("front bounds %d..%d, golden WCET-directed %d and energy-directed %d",
				o.Front[0].WCET, o.EnergyWCET, row.WCET.WCET, row.Energy.WCET)
		}
		return nil
	}
	return fmt.Errorf("unknown kind %q", c.Kind)
}

// checkOracle re-links the placement from scratch and compares the bound
// with wcet.Analyze, and with simCheck the simulated cycles with sim.Run,
// whose result it returns.
func checkOracle(lab *core.Lab, size uint32, inSPM map[string]bool, ccfg *cache.Config, bound, cycles uint64, simCheck bool) (*sim.Result, error) {
	exe, err := link.Link(lab.Prog, size, inSPM)
	if err != nil {
		return nil, fmt.Errorf("oracle link: %w", err)
	}
	opts := wcet.Options{}
	if ccfg != nil {
		opts = wcet.Options{Cache: ccfg, StackBound: lab.StackBound}
	}
	res, err := wcet.Analyze(exe, opts)
	if err != nil {
		return nil, fmt.Errorf("oracle analysis: %w", err)
	}
	if res.WCET != bound {
		return nil, fmt.Errorf("bound %d, from-scratch wcet.Analyze gives %d", bound, res.WCET)
	}
	if !simCheck {
		return nil, nil
	}
	sr, err := sim.Run(exe, sim.Options{Cache: ccfg})
	if err != nil {
		return nil, fmt.Errorf("oracle simulation: %w", err)
	}
	if sr.Cycles != cycles {
		return nil, fmt.Errorf("simulated cycles %d, sim.Run gives %d", cycles, sr.Cycles)
	}
	return sr, nil
}
