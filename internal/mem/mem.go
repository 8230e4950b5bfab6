// Package mem models the target memory system of the paper's evaluation
// board (ATMEL AT91EB01): a slow off-chip main memory whose access time
// depends on the access width (Table 1 of the paper), an optional on-chip
// scratchpad with uniform single-cycle access, and an optional unified
// cache in front of main memory.
//
// The cache is tag-only: because writes are write-through, main memory is
// always current and the cache contributes timing, not storage. This keeps
// the functional simulation independent of the cache configuration — only
// cycle counts change, which is exactly the property the paper's comparison
// relies on.
package mem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cache"
)

// Cycle costs from Table 1 of the paper: a main-memory access takes the
// base cycle plus width-dependent waitstates; the scratchpad always
// answers in a single cycle.
const (
	MainByteCycles = 2 // 1 + 1 waitstate
	MainHalfCycles = 2 // 1 + 1 waitstate
	MainWordCycles = 4 // 1 + 3 waitstates
	SPMCycles      = 1
)

// MainCost returns the main-memory access cost for an access of the given
// width in bytes (Table 1).
func MainCost(width uint8) int {
	if width == 4 {
		return MainWordCycles
	}
	return MainHalfCycles
}

// SPMSaving returns the cycles saved by serving n accesses of the given
// width in bytes from the scratchpad instead of main memory. Both the
// simulator's derived scratchpad results and the WCET witness's benefit
// price a scratchpad access with it.
func SPMSaving(width uint8, n uint64) uint64 {
	return n * uint64(MainCost(width)-SPMCycles)
}

// Segment is a contiguous backed address range.
type Segment struct {
	Name string
	Base uint32
	Data []byte
}

// Contains reports whether the address range [addr, addr+size) lies in the
// segment.
func (s *Segment) Contains(addr uint32, size uint8) bool {
	return addr >= s.Base && uint64(addr)+uint64(size) <= uint64(s.Base)+uint64(len(s.Data))
}

func (s *Segment) read(addr uint32, size uint8) uint32 {
	off := addr - s.Base
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(s.Data[off:])
	case 2:
		return uint32(binary.LittleEndian.Uint16(s.Data[off:]))
	case 1:
		return uint32(s.Data[off])
	}
	var v uint32
	for i := uint8(0); i < size; i++ {
		v |= uint32(s.Data[off+uint32(i)]) << (8 * i)
	}
	return v
}

func (s *Segment) write(addr uint32, size uint8, val uint32) {
	off := addr - s.Base
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(s.Data[off:], val)
		return
	case 2:
		binary.LittleEndian.PutUint16(s.Data[off:], uint16(val))
		return
	case 1:
		s.Data[off] = byte(val)
		return
	}
	for i := uint8(0); i < size; i++ {
		s.Data[off+uint32(i)] = byte(val >> (8 * i))
	}
}

// Access describes one memory access, as observed by profiling hooks.
type Access struct {
	Addr  uint32
	Size  uint8
	Fetch bool
	Write bool
}

// windowShift sets the granularity of System's direct segment lookup:
// one table slot per 1 MiB window of the address space.
const windowShift = 20

// Window slot values below windowDirect; a value k >= windowDirect selects
// System.direct[k-windowDirect].
const (
	// windowFind sends the lookup to the linear search: several segments
	// meet in the window, or the table was never built (a System not made
	// by NewSystem).
	windowFind = iota
	// windowEmpty marks a window that no segment touches.
	windowEmpty
	windowDirect
)

// directSeg is the only segment in one or more windows.
type directSeg struct {
	seg *Segment
	spm bool
}

// System is the complete memory system; it implements arm.Bus.
type System struct {
	// SPM is the scratchpad segment; nil when the system has no scratchpad.
	// SPM and Main must not change after NewSystem, which indexes them.
	SPM *Segment
	// Main holds the main-memory segments (code, data, stack, …).
	Main []*Segment
	// Cache, when non-nil, fronts every main-memory access (unified cache);
	// scratchpad accesses bypass it.
	Cache *cache.Cache

	// OnAccess, when non-nil, observes every access (before cost
	// accounting). Used by the profiler that feeds the SPM allocator.
	OnAccess func(Access)

	// Statistics.
	SPMAccesses  uint64
	MainAccesses uint64

	// window maps each 1 MiB window (addr >> windowShift) to the one
	// segment that touches it, or to windowEmpty or windowFind.
	window [1 << (32 - windowShift)]uint8
	direct []directSeg
}

// NewSystem builds a memory system from segments. spm may be nil.
//
// It indexes every window that exactly one segment touches, so that
// lookups there skip the linear search. A segment touches the windows of
// its bytes and of its end address (where a zero-size range is still
// contained). An access whose window maps to a single segment can lie in
// no other segment, since any segment holding the access's first byte
// touches that window; so the direct answer is that segment if it
// contains the access and none otherwise, exactly what find returns.
func NewSystem(spm *Segment, main ...*Segment) *System {
	m := &System{SPM: spm, Main: main}
	for w := range m.window {
		m.window[w] = windowEmpty
	}
	touch := func(s *Segment, isSPM bool) {
		k := uint8(windowFind) // once slot values run out, search linearly
		if len(m.direct) < 0x100-windowDirect {
			k = uint8(len(m.direct) + windowDirect)
			m.direct = append(m.direct, directSeg{s, isSPM})
		}
		for w := s.Base >> windowShift; w <= s.lastWindow(); w++ {
			if m.window[w] == windowEmpty {
				m.window[w] = k
			} else {
				m.window[w] = windowFind
			}
		}
	}
	if spm != nil {
		touch(spm, true)
	}
	for _, s := range main {
		touch(s, false)
	}
	return m
}

// lastWindow returns the window of the segment's end address.
func (s *Segment) lastWindow() uint32 {
	return uint32(min((uint64(s.Base)+uint64(len(s.Data)))>>windowShift, 1<<(32-windowShift)-1))
}

// lookup returns the segment containing [addr, addr+size) and whether it
// is the scratchpad, through the window table where it can.
func (m *System) lookup(addr uint32, size uint8) (*Segment, bool) {
	switch k := m.window[addr>>windowShift]; k {
	case windowFind:
		return m.find(addr, size)
	case windowEmpty:
		return nil, false
	default:
		d := &m.direct[k-windowDirect]
		if d.seg.Contains(addr, size) {
			return d.seg, d.spm
		}
		return nil, false
	}
}

// find is the linear search over all segments, scratchpad first.
func (m *System) find(addr uint32, size uint8) (*Segment, bool) {
	if m.SPM != nil && m.SPM.Contains(addr, size) {
		return m.SPM, true
	}
	for _, s := range m.Main {
		if s.Contains(addr, size) {
			return s, false
		}
	}
	return nil, false
}

// Read implements arm.Bus.
func (m *System) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	if m.OnAccess != nil {
		m.OnAccess(Access{Addr: addr, Size: size, Fetch: fetch})
	}
	seg, isSPM := m.lookup(addr, size)
	if seg == nil {
		return 0, 0, fmt.Errorf("mem: unmapped %d-byte read at %#x", size, addr)
	}
	v := seg.read(addr, size)
	if isSPM {
		m.SPMAccesses++
		return v, SPMCycles, nil
	}
	m.MainAccesses++
	if m.Cache != nil && (fetch || !m.Cache.Config().InstructionOnly) {
		return v, m.Cache.Read(addr), nil
	}
	return v, MainCost(size), nil
}

// Write implements arm.Bus.
func (m *System) Write(addr uint32, size uint8, val uint32) (int, error) {
	if m.OnAccess != nil {
		m.OnAccess(Access{Addr: addr, Size: size, Write: true})
	}
	seg, isSPM := m.lookup(addr, size)
	if seg == nil {
		return 0, fmt.Errorf("mem: unmapped %d-byte write at %#x", size, addr)
	}
	seg.write(addr, size, val)
	if isSPM {
		m.SPMAccesses++
		return SPMCycles, nil
	}
	m.MainAccesses++
	if m.Cache != nil && !m.Cache.Config().InstructionOnly {
		return m.Cache.Write(addr, size), nil
	}
	return MainCost(size), nil
}

// Peek reads memory without timing, statistics or profiling side effects.
// It is used to inspect results after simulation.
func (m *System) Peek(addr uint32, size uint8) (uint32, error) {
	seg, _ := m.lookup(addr, size)
	if seg == nil {
		return 0, fmt.Errorf("mem: unmapped %d-byte peek at %#x", size, addr)
	}
	return seg.read(addr, size), nil
}

// Poke writes memory without timing side effects (test/input injection).
func (m *System) Poke(addr uint32, size uint8, val uint32) error {
	seg, _ := m.lookup(addr, size)
	if seg == nil {
		return fmt.Errorf("mem: unmapped %d-byte poke at %#x", size, addr)
	}
	seg.write(addr, size, val)
	return nil
}
