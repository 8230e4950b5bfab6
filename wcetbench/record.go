package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// record is everything needed to replay a run: the environment, the seed
// and generated configurations, and per-iteration figures including the
// pipeline's memo counters.
type record struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceSHA256 digests the repository's Go sources, identifying the
	// code even where no commit is known.
	SourceSHA256 string            `json:"source_sha256"`
	Iterations   []iterationRecord `json:"iterations"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Metrics      map[string]metric `json:"metrics"`
}

type iterationRecord struct {
	Configs      []config `json:"configs"`
	Workers      int      `json:"workers"`
	Traced       bool     `json:"traced,omitempty"`
	SetupS       float64  `json:"setup_s"`
	WallS        float64  `json:"wall_s"`
	ConfigsPerS  float64  `json:"configs_per_s"`
	PoolIdleFrac float64  `json:"pool_idle_frac"`
	RetainedMB   float64  `json:"retained_heap_mb"`
	// Stage executions and memo hits from pipeline.Stats, summed over the
	// iteration's Labs before the gate ran.
	Links, LinkHits       uint64
	Sims, SimHits         uint64
	Analyses, AnalyzeHits uint64
	Profiles, ProfileHits uint64
	Allocs, AllocHits     uint64
}

func newRecord(root, commit, workload string, seed uint64, trace int) *record {
	if commit == "" {
		commit = "unknown"
	}
	return &record{
		Workload: workload, Seed: seed, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit,
		SourceSHA256: sourceDigest(root),
	}
}

func (rec *record) add(it *iteration) {
	s := it.stats
	n := len(it.cfgs)
	rec.Iterations = append(rec.Iterations, iterationRecord{
		Configs: it.cfgs, Workers: it.workers, Traced: it.traced, SetupS: it.setup.Seconds(), WallS: it.wall.Seconds(),
		ConfigsPerS:  float64(n) / it.wall.Seconds(),
		PoolIdleFrac: 1 - it.busy.Seconds()/(float64(it.workers)*it.wall.Seconds()),
		RetainedMB:   float64(it.retained) / 1e6,
		Links:        s.Links, LinkHits: s.LinkHits, Sims: s.Sims, SimHits: s.SimHits,
		Analyses: s.Analyses, AnalyzeHits: s.AnalyzeHits, Profiles: s.Profiles, ProfileHits: s.ProfileHits,
		Allocs: s.Allocs, AllocHits: s.AllocHits,
	})
}

// write prints the record as one JSON line on w and, given a directory,
// saves it there as <workload>-seed<N>-trace<T>.json.
func (rec *record) write(w io.Writer, dir string) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wcetbench record: %s\n", data)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every go.mod and .go file under root (skipping
// dot-directories such as build output), in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
