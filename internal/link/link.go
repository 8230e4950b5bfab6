// Package link places memory objects at addresses and resolves relocations,
// producing an executable image. The memory map mirrors the paper's
// AT91EB01-based model: an on-chip scratchpad at the bottom of the address
// space and off-chip main memory regions for code, data and the stack.
//
// The linker is re-run for every scratchpad capacity: the allocator's
// chosen objects move into the scratchpad region, all addresses shift, and
// relocations (BL offsets, literal-pool addresses) are re-resolved — the
// paper's observation that "relative branch offsets ... do not reflect the
// actual execution time addresses" is handled here.
package link

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obj"
)

// Memory map constants.
const (
	// SPMBase is the scratchpad base address (tightly coupled memory).
	SPMBase uint32 = 0x0000_0000
	// SPMMax is the largest scratchpad capacity considered by the paper.
	SPMMax uint32 = 8192
	// CodeBase is the main-memory code region.
	CodeBase uint32 = 0x0010_0000
	// DataBase is the main-memory data region.
	DataBase uint32 = 0x0020_0000
	// StackBase is the main-memory stack region (grows down from StackTop).
	StackBase uint32 = 0x0030_0000
	// StackSize is the stack region size.
	StackSize uint32 = 0x1_0000
	// StackTop is the initial stack pointer.
	StackTop = StackBase + StackSize
)

// Placement is one placed memory object.
type Placement struct {
	Obj   *obj.Object
	Addr  uint32
	InSPM bool
	// Image is the object's data with relocations resolved.
	Image []byte
}

// End returns the first address after the object.
func (p *Placement) End() uint32 { return p.Addr + p.Obj.Size() }

// Contains reports whether addr lies within the placed object.
func (p *Placement) Contains(addr uint32) bool { return addr >= p.Addr && addr < p.End() }

// Executable is a fully linked program.
type Executable struct {
	Prog    *obj.Program
	SPMSize uint32
	// Placements in address order per region.
	Placements []*Placement
	byName     map[string]*Placement
	EntryAddr  uint32
	MainAddr   uint32

	// byAddr holds the non-empty placements sorted by address, built
	// lazily for FindAddr's binary search (placed ranges are disjoint).
	addrOnce sync.Once
	byAddr   []*Placement

	// Segment templates: the composed code/data/spm images, built lazily so
	// repeated NewMemory calls copy three flat arrays instead of walking
	// every placement.
	segOnce                  sync.Once
	segSPM, segCode, segData []byte
}

// Placement returns the placement of the named object, or nil.
func (e *Executable) Placement(name string) *Placement { return e.byName[name] }

// FindAddr returns the placement containing addr, or nil. It sits on the
// simulation/analysis lookup paths, so it binary-searches an address-sorted
// index instead of scanning.
func (e *Executable) FindAddr(addr uint32) *Placement {
	e.addrOnce.Do(func() {
		e.byAddr = make([]*Placement, 0, len(e.Placements))
		for _, p := range e.Placements {
			if p.Obj.Size() > 0 {
				e.byAddr = append(e.byAddr, p)
			}
		}
		sort.Slice(e.byAddr, func(i, j int) bool { return e.byAddr[i].Addr < e.byAddr[j].Addr })
	})
	// First placement starting after addr; the candidate is its predecessor.
	i := sort.Search(len(e.byAddr), func(i int) bool { return e.byAddr[i].Addr > addr })
	if i > 0 && e.byAddr[i-1].Contains(addr) {
		return e.byAddr[i-1]
	}
	return nil
}

// ObjLayout is one object's address assignment under a placement, in
// program (placement) order.
type ObjLayout struct {
	Addr  uint32
	InSPM bool
}

// Layout is the linker's address walk: it assigns every object of p its
// address and memory side under one placement, without materialising
// images. Objects named in inSPM go to the scratchpad (in program order,
// aligned, within spmSize); remaining code and data objects go to the
// main-memory code and data regions. Unknown names in inSPM are ignored.
// Link and both incremental analysis contexts place objects through it.
func Layout(p *obj.Program, spmSize uint32, inSPM map[string]bool) ([]ObjLayout, error) {
	if spmSize > SPMMax {
		return nil, fmt.Errorf("link: scratchpad size %d exceeds maximum %d", spmSize, SPMMax)
	}
	out := make([]ObjLayout, len(p.Objects))
	align := func(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }
	spmCur, codeCur, dataCur := SPMBase, CodeBase, DataBase
	for i, o := range p.Objects {
		switch {
		case inSPM[o.Name]:
			if spmSize == 0 {
				return nil, fmt.Errorf("link: %s allocated to scratchpad but scratchpad size is 0", o.Name)
			}
			spmCur = align(spmCur, o.Align)
			out[i] = ObjLayout{Addr: spmCur, InSPM: true}
			spmCur += o.Size()
			if spmCur-SPMBase > spmSize {
				return nil, fmt.Errorf("link: scratchpad overflow: %s ends at %d, capacity %d", o.Name, spmCur-SPMBase, spmSize)
			}
		case o.Kind == obj.Code:
			codeCur = align(codeCur, o.Align)
			out[i] = ObjLayout{Addr: codeCur}
			codeCur += o.Size()
		default:
			dataCur = align(dataCur, o.Align)
			out[i] = ObjLayout{Addr: dataCur}
			dataCur += o.Size()
		}
	}
	return out, nil
}

// MovedObjects returns the placement indices of objects whose address or
// memory side differs between two layouts of the same program.
func MovedObjects(a, b []ObjLayout) []int {
	var moved []int
	for i := range a {
		if a[i] != b[i] {
			moved = append(moved, i)
		}
	}
	return moved
}

// Link places the program with the given scratchpad capacity (see Layout)
// and resolves relocations into per-placement images. spmSize 0 produces a
// system without a scratchpad. Link never writes into an object's Data: a
// placement without relocations shares it as its Image, every other
// placement gets a freshly patched copy. Images are read-only.
func Link(p *obj.Program, spmSize uint32, inSPM map[string]bool) (*Executable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lay, err := Layout(p, spmSize, inSPM)
	if err != nil {
		return nil, err
	}
	e := &Executable{
		Prog:       p,
		SPMSize:    spmSize,
		Placements: make([]*Placement, len(p.Objects)),
		byName:     make(map[string]*Placement, len(p.Objects)),
	}
	for i, o := range p.Objects {
		pl := &Placement{Obj: o, Addr: lay[i].Addr, InSPM: lay[i].InSPM}
		e.Placements[i] = pl
		e.byName[o.Name] = pl
	}

	// Resolve relocations into per-placement images.
	for _, pl := range e.Placements {
		if len(pl.Obj.Relocs) == 0 {
			pl.Image = pl.Obj.Data
			continue
		}
		img := append([]byte(nil), pl.Obj.Data...)
		for _, r := range pl.Obj.Relocs {
			tgt, ok := e.byName[r.Target]
			if !ok {
				return nil, fmt.Errorf("link: %s: undefined symbol %q", pl.Obj.Name, r.Target)
			}
			switch r.Kind {
			case obj.RelocAbs32:
				v := tgt.Addr + uint32(r.Addend)
				img[r.Offset] = byte(v)
				img[r.Offset+1] = byte(v >> 8)
				img[r.Offset+2] = byte(v >> 16)
				img[r.Offset+3] = byte(v >> 24)
			case obj.RelocBL:
				instrAddr := pl.Addr + r.Offset
				disp := int64(tgt.Addr) - int64(instrAddr) - 4
				if disp < -(1<<22) || disp >= 1<<22 {
					return nil, fmt.Errorf("link: %s: BL to %s displacement %d exceeds range", pl.Obj.Name, r.Target, disp)
				}
				hi := uint16((disp >> 12) & 0x7FF)
				lo := uint16((disp >> 1) & 0x7FF)
				hw1 := uint16(0b11110<<11) | hi
				hw2 := uint16(0b11111<<11) | lo
				img[r.Offset] = byte(hw1)
				img[r.Offset+1] = byte(hw1 >> 8)
				img[r.Offset+2] = byte(hw2)
				img[r.Offset+3] = byte(hw2 >> 8)
			default:
				return nil, fmt.Errorf("link: %s: unknown relocation kind %d", pl.Obj.Name, r.Kind)
			}
		}
		pl.Image = img
	}

	if p.Entry != "" {
		e.EntryAddr = e.byName[p.Entry].Addr
	}
	if p.Main != "" {
		e.MainAddr = e.byName[p.Main].Addr
	}
	return e, nil
}

// buildSegments composes the placement images into flat per-region segment
// templates, once per executable.
func (e *Executable) buildSegments() {
	codeEnd, dataEnd := CodeBase, DataBase
	for _, pl := range e.Placements {
		if pl.InSPM {
			continue
		}
		if pl.Obj.Kind == obj.Code && pl.End() > codeEnd {
			codeEnd = pl.End()
		}
		if pl.Obj.Kind == obj.Data && pl.End() > dataEnd {
			dataEnd = pl.End()
		}
	}
	pad := func(v uint32) uint32 { return (v + 15) &^ 15 }
	if e.SPMSize > 0 {
		e.segSPM = make([]byte, e.SPMSize)
	}
	e.segCode = make([]byte, pad(codeEnd-CodeBase)+16)
	e.segData = make([]byte, pad(dataEnd-DataBase)+16)
	for _, pl := range e.Placements {
		switch {
		case pl.InSPM:
			copy(e.segSPM[pl.Addr-SPMBase:], pl.Image)
		case pl.Obj.Kind == obj.Code:
			copy(e.segCode[pl.Addr-CodeBase:], pl.Image)
		default:
			copy(e.segData[pl.Addr-DataBase:], pl.Image)
		}
	}
}

// NewMemory materialises the executable into a fresh memory system,
// optionally fronted by a unified cache (cacheCfg nil means no cache). Every
// call returns an independent image, so repeated simulations start cold; the
// composed segment bytes are cached on the executable, so a repeat call is
// three memcpys rather than a placement walk.
func (e *Executable) NewMemory(cacheCfg *cache.Config) (*mem.System, error) {
	e.segOnce.Do(e.buildSegments)
	var spm *mem.Segment
	if e.SPMSize > 0 {
		spm = &mem.Segment{Name: "spm", Base: SPMBase, Data: append([]byte(nil), e.segSPM...)}
	}
	code := &mem.Segment{Name: "code", Base: CodeBase, Data: append([]byte(nil), e.segCode...)}
	data := &mem.Segment{Name: "data", Base: DataBase, Data: append([]byte(nil), e.segData...)}
	stack := &mem.Segment{Name: "stack", Base: StackBase, Data: make([]byte, StackSize)}
	sys := mem.NewSystem(spm, code, data, stack)
	if cacheCfg != nil {
		c, err := cache.New(*cacheCfg)
		if err != nil {
			return nil, err
		}
		sys.Cache = c
	}
	return sys, nil
}
