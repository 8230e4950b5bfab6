package store

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"

	"repro/internal/obj"
	"repro/internal/sim"
	"repro/internal/wcet"
)

// artifacts.go: deterministic (de)serialization of the three persisted
// artifact types. sim.Result's Mem field (the final memory system, kept for
// interactive inspection) is deliberately not persisted: every consumer of
// a pipeline-served result reads only the scalar counters, and the memory
// image is reproducible by re-running the simulation. A store-loaded
// Result therefore has Mem == nil.

// ProgramKey returns the content hash of a compiled program — the
// "program content" half of every artifact key. It covers everything that
// influences linking, simulation and analysis: object order (placement
// order), names, kinds, raw data, alignment, element widths, relocations,
// flow facts, access hints, call lists and the entry/main designations.
func ProgramKey(p *obj.Program) string {
	var e encoder
	e.str("wclb-program-v2")
	e.str(p.Entry)
	e.str(p.Main)
	e.u32(uint32(len(p.Objects)))
	for _, o := range p.Objects {
		e.str(o.Name)
		e.u8(uint8(o.Kind))
		e.bytes(o.Data)
		e.u32(o.Align)
		e.u8(o.ElemWidth)
		e.boolean(o.ReadOnly)
		e.u32(uint32(len(o.Relocs)))
		for _, r := range o.Relocs {
			e.u8(uint8(r.Kind))
			e.u32(r.Offset)
			e.str(r.Target)
			e.i64(int64(r.Addend))
		}
		e.u32(o.CodeSize)
		e.u32(uint32(len(o.LoopBounds)))
		for _, lb := range o.LoopBounds {
			e.u32(lb.BranchOffset)
			e.i64(lb.MaxIter)
			e.i64(lb.TotalIter)
		}
		e.u32(uint32(len(o.Accesses)))
		for _, a := range o.Accesses {
			e.u32(a.InstrOffset)
			e.str(a.Target)
		}
		e.u32(uint32(len(o.Calls)))
		for _, c := range o.Calls {
			e.str(c)
		}
		e.str(o.Parent)
		e.u32(uint32(len(o.Fragments)))
		for _, f := range o.Fragments {
			e.str(f)
		}
		e.u32(uint32(len(o.CrossJumps)))
		for _, cj := range o.CrossJumps {
			e.u32(cj.InstrOffset)
			e.str(cj.Target)
			e.u32(cj.TargetOffset)
		}
	}
	sum := sha256.Sum256(e.b)
	return hex.EncodeToString(sum[:])
}

// AllocArtifact is the persisted form of a scratchpad allocation solve. It
// mirrors pipeline.Allocation field for field (the pipeline imports this
// package, so the struct cannot be shared directly).
type AllocArtifact struct {
	InSPM      map[string]bool
	Benefit    float64
	Used       uint32
	Splits     []obj.Region
	Iterations uint32
	Converged  bool
}

// EncodeAlloc serializes an allocation solve: the chosen residents (sorted;
// only true entries), the objective value, the occupancy and the
// placement-unit partition the names are relative to.
func EncodeAlloc(a *AllocArtifact) []byte {
	var e encoder
	var names []string
	for n, in := range a.InSPM {
		if in {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
	}
	e.u64(math.Float64bits(a.Benefit))
	e.u32(a.Used)
	e.u32(uint32(len(a.Splits)))
	for _, r := range a.Splits {
		e.str(r.Func)
		e.u32(r.Start)
		e.u32(r.End)
	}
	e.u32(a.Iterations)
	e.boolean(a.Converged)
	return e.b
}

// DecodeAlloc is the inverse of EncodeAlloc.
func DecodeAlloc(b []byte) (*AllocArtifact, error) {
	d := &decoder{b: b}
	a := &AllocArtifact{InSPM: make(map[string]bool)}
	n := d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		if d.err == nil {
			a.InSPM[name] = true
		}
	}
	a.Benefit = math.Float64frombits(d.u64())
	a.Used = d.u32()
	n = d.count()
	for i := 0; i < n; i++ {
		r := obj.Region{Func: d.str(), Start: d.u32(), End: d.u32()}
		if d.err == nil {
			a.Splits = append(a.Splits, r)
		}
	}
	a.Iterations = d.u32()
	a.Converged = d.boolean()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return a, nil
}

func appendSim(e *encoder, r *sim.Result) {
	e.u64(r.Cycles)
	e.u64(r.Instrs)
	e.u64(r.CacheHits)
	e.u64(r.CacheMisses)
	e.u32(r.ExitCode)
}

func readSim(d *decoder) *sim.Result {
	return &sim.Result{
		Cycles:      d.u64(),
		Instrs:      d.u64(),
		CacheHits:   d.u64(),
		CacheMisses: d.u64(),
		ExitCode:    d.u32(),
	}
}

// EncodeSim serializes a simulation result (without its memory image).
func EncodeSim(r *sim.Result) []byte {
	var e encoder
	appendSim(&e, r)
	return e.b
}

// DecodeSim is the inverse of EncodeSim; the result's Mem is nil.
func DecodeSim(b []byte) (*sim.Result, error) {
	d := &decoder{b: b}
	r := readSim(d)
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// EncodeProfile serializes a typical-input access profile, including the
// scalar fields of its underlying simulation result (everything the energy
// model and the stack-bound derivation consume).
func EncodeProfile(p *sim.Profile) []byte {
	var e encoder
	e.u32(uint32(len(p.ByObject)))
	for _, name := range sortedKeys(p.ByObject) {
		op := p.ByObject[name]
		e.str(name)
		e.u64(op.Fetches)
		e.u64(op.LiteralReads)
		e.u64(op.Reads)
		e.u64(op.Writes)
	}
	e.u64(p.StackAccesses)
	e.u32(p.MinStackAddr)
	e.boolean(p.Result != nil)
	if p.Result != nil {
		appendSim(&e, p.Result)
	}
	return e.b
}

// DecodeProfile is the inverse of EncodeProfile.
func DecodeProfile(b []byte) (*sim.Profile, error) {
	d := &decoder{b: b}
	p := &sim.Profile{ByObject: make(map[string]*sim.ObjectProfile)}
	n := d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		op := &sim.ObjectProfile{
			Fetches:      d.u64(),
			LiteralReads: d.u64(),
			Reads:        d.u64(),
			Writes:       d.u64(),
		}
		if d.err == nil {
			p.ByObject[name] = op
		}
	}
	p.StackAccesses = d.u64()
	p.MinStackAddr = d.u32()
	if d.boolean() {
		p.Result = readSim(d)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// EncodeWCET serializes an analysis result, including the worst-case-path
// witness when present. Witness presence is part of the payload, not of
// the key: a witness-bearing entry answers witness-less requests, and a
// witness-less entry is overwritten when a witness is first computed.
func EncodeWCET(r *wcet.Result) []byte {
	var e encoder
	e.u64(r.WCET)
	e.u32(uint32(len(r.PerFunction)))
	for _, name := range sortedKeys(r.PerFunction) {
		e.str(name)
		e.u64(r.PerFunction[name])
	}
	e.i64(int64(r.FetchAlwaysHit))
	e.i64(int64(r.FetchUnclassified))
	e.i64(int64(r.DataAlwaysHit))
	e.i64(int64(r.DataUnclassified))
	e.boolean(r.Witness != nil)
	if r.Witness != nil {
		appendWitness(&e, r.Witness)
	}
	return e.b
}

// DecodeWCET is the inverse of EncodeWCET.
func DecodeWCET(b []byte) (*wcet.Result, error) {
	d := &decoder{b: b}
	r := &wcet.Result{WCET: d.u64(), PerFunction: make(map[string]uint64)}
	n := d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		v := d.u64()
		if d.err == nil {
			r.PerFunction[name] = v
		}
	}
	r.FetchAlwaysHit = int(d.i64())
	r.FetchUnclassified = int(d.i64())
	r.DataAlwaysHit = int(d.i64())
	r.DataUnclassified = int(d.i64())
	if d.boolean() {
		r.Witness = readWitness(d)
	}
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

func appendWitness(e *encoder, w *wcet.Witness) {
	e.u32(uint32(len(w.FuncRuns)))
	for _, name := range sortedKeys(w.FuncRuns) {
		e.str(name)
		e.u64(w.FuncRuns[name])
	}
	e.u32(uint32(len(w.BlockCounts)))
	for _, name := range sortedKeys(w.BlockCounts) {
		e.str(name)
		counts := w.BlockCounts[name]
		e.u32(uint32(len(counts)))
		for _, c := range counts {
			e.u64(c)
		}
	}
	e.u32(uint32(len(w.EdgeCounts)))
	for _, name := range sortedKeys(w.EdgeCounts) {
		e.str(name)
		ecs := w.EdgeCounts[name]
		e.u32(uint32(len(ecs)))
		for _, ec := range ecs {
			e.i64(int64(ec.From))
			e.i64(int64(ec.To))
			e.boolean(ec.Taken)
			e.u64(ec.Count)
		}
	}
	e.u32(uint32(len(w.ObjectAccesses)))
	for _, name := range sortedKeys(w.ObjectAccesses) {
		ac := w.ObjectAccesses[name]
		e.str(name)
		e.u64(ac.Fetches)
		widths := make([]int, 0, len(ac.Data))
		for wd := range ac.Data {
			widths = append(widths, int(wd))
		}
		sort.Ints(widths)
		e.u32(uint32(len(widths)))
		for _, wd := range widths {
			e.u8(uint8(wd))
			e.u64(ac.Data[uint8(wd)])
		}
	}
}

func readWitness(d *decoder) *wcet.Witness {
	w := &wcet.Witness{
		FuncRuns:       make(map[string]uint64),
		BlockCounts:    make(map[string][]uint64),
		EdgeCounts:     make(map[string][]wcet.EdgeCount),
		ObjectAccesses: make(map[string]*wcet.AccessCounts),
	}
	n := d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		v := d.u64()
		if d.err == nil {
			w.FuncRuns[name] = v
		}
	}
	n = d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		m := d.count()
		counts := make([]uint64, m)
		for j := range counts {
			counts[j] = d.u64()
		}
		if d.err == nil {
			w.BlockCounts[name] = counts
		}
	}
	n = d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		m := d.count()
		// A function without edges encodes length 0 and decodes to a nil
		// slice, matching what the witness builder produces.
		var ecs []wcet.EdgeCount
		for j := 0; j < m; j++ {
			ecs = append(ecs, wcet.EdgeCount{
				From:  int(d.i64()),
				To:    int(d.i64()),
				Taken: d.boolean(),
				Count: d.u64(),
			})
		}
		if d.err == nil {
			w.EdgeCounts[name] = ecs
		}
	}
	n = d.count()
	for i := 0; i < n; i++ {
		name := d.str()
		ac := &wcet.AccessCounts{Fetches: d.u64()}
		m := d.count()
		if m > 0 {
			ac.Data = make(map[uint8]uint64, m)
		}
		for j := 0; j < m; j++ {
			wd := d.u8()
			v := d.u64()
			if d.err == nil {
				ac.Data[wd] = v
			}
		}
		if d.err == nil {
			w.ObjectAccesses[name] = ac
		}
	}
	return w
}
