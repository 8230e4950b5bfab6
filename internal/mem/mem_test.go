package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
)

func sys(spmSize int) *System {
	var spm *Segment
	if spmSize > 0 {
		spm = &Segment{Name: "spm", Base: 0x0000, Data: make([]byte, spmSize)}
	}
	return NewSystem(spm,
		&Segment{Name: "code", Base: 0x10000, Data: make([]byte, 0x8000)},
		&Segment{Name: "data", Base: 0x20000, Data: make([]byte, 0x8000)},
	)
}

func TestTable1Costs(t *testing.T) {
	m := sys(1024)
	cases := []struct {
		addr uint32
		size uint8
		want int
	}{
		{0x10, 1, SPMCycles}, // SPM byte
		{0x10, 2, SPMCycles}, // SPM halfword
		{0x10, 4, SPMCycles}, // SPM word
		{0x10000, 1, MainByteCycles},
		{0x10000, 2, MainHalfCycles},
		{0x10000, 4, MainWordCycles},
	}
	for _, c := range cases {
		_, cyc, err := m.Read(c.addr, c.size, false)
		if err != nil {
			t.Fatalf("read %#x: %v", c.addr, err)
		}
		if cyc != c.want {
			t.Errorf("read %#x size %d: %d cycles, want %d", c.addr, c.size, cyc, c.want)
		}
		wcyc, err := m.Write(c.addr, c.size, 0)
		if err != nil {
			t.Fatalf("write %#x: %v", c.addr, err)
		}
		if wcyc != c.want {
			t.Errorf("write %#x size %d: %d cycles, want %d", c.addr, c.size, wcyc, c.want)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := sys(256)
	for _, tc := range []struct {
		addr uint32
		size uint8
		val  uint32
	}{
		{0x20, 4, 0xDEADBEEF},
		{0x24, 2, 0xBEEF},
		{0x26, 1, 0x7F},
		{0x20010, 4, 0x12345678},
	} {
		if _, err := m.Write(tc.addr, tc.size, tc.val); err != nil {
			t.Fatal(err)
		}
		v, _, err := m.Read(tc.addr, tc.size, false)
		if err != nil {
			t.Fatal(err)
		}
		if v != tc.val {
			t.Errorf("round trip %#x size %d: got %#x, want %#x", tc.addr, tc.size, v, tc.val)
		}
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := sys(0)
	m.Write(0x20000, 4, 0x11223344)
	lo, _, _ := m.Read(0x20000, 1, false)
	hi, _, _ := m.Read(0x20003, 1, false)
	if lo != 0x44 || hi != 0x11 {
		t.Fatalf("little-endian bytes: lo=%#x hi=%#x", lo, hi)
	}
	h, _, _ := m.Read(0x20002, 2, false)
	if h != 0x1122 {
		t.Fatalf("high halfword = %#x, want 0x1122", h)
	}
}

func TestUnmappedAccess(t *testing.T) {
	m := sys(64)
	if _, _, err := m.Read(0x9000000, 4, false); err == nil {
		t.Error("unmapped read should fail")
	}
	if _, err := m.Write(0x9000000, 4, 0); err == nil {
		t.Error("unmapped write should fail")
	}
	// Access straddling the end of a segment fails.
	if _, _, err := m.Read(0x17FFE, 4, false); err == nil {
		t.Error("straddling read should fail")
	}
	// SPM boundary: inside 64-byte SPM ok, beyond falls through to unmapped.
	if _, _, err := m.Read(60, 4, false); err != nil {
		t.Errorf("in-SPM read failed: %v", err)
	}
	if _, _, err := m.Read(64, 4, false); err == nil {
		t.Error("read past SPM should be unmapped")
	}
}

func TestCachedMainMemory(t *testing.T) {
	m := sys(0)
	var err error
	m.Cache, err = cache.New(cache.Config{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	// First read: miss; second: hit.
	_, cyc, _ := m.Read(0x10000, 2, true)
	if cyc != cache.MissCycles {
		t.Fatalf("cold fetch cost %d, want %d", cyc, cache.MissCycles)
	}
	_, cyc, _ = m.Read(0x10000, 2, true)
	if cyc != cache.HitCycles {
		t.Fatalf("warm fetch cost %d, want %d", cyc, cache.HitCycles)
	}
	// Writes are write-through at main-memory cost.
	wcyc, _ := m.Write(0x10000, 4, 1)
	if wcyc != MainWordCycles {
		t.Fatalf("cached write cost %d, want %d", wcyc, MainWordCycles)
	}
}

func TestSPMBypassesCache(t *testing.T) {
	m := sys(1024)
	var err error
	m.Cache, err = cache.New(cache.Config{Size: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, cyc, _ := m.Read(0x10, 4, false)
	if cyc != SPMCycles {
		t.Fatalf("SPM read through cache-enabled system cost %d, want %d", cyc, SPMCycles)
	}
	if m.Cache.Hits+m.Cache.Misses != 0 {
		t.Fatal("SPM access must not touch the cache")
	}
}

func TestOnAccessHook(t *testing.T) {
	m := sys(64)
	var got []Access
	m.OnAccess = func(a Access) { got = append(got, a) }
	m.Read(0x10, 4, true)
	m.Write(0x10000, 2, 7)
	if len(got) != 2 {
		t.Fatalf("hook saw %d accesses, want 2", len(got))
	}
	if !got[0].Fetch || got[0].Write {
		t.Errorf("first access should be a fetch: %+v", got[0])
	}
	if !got[1].Write || got[1].Size != 2 {
		t.Errorf("second access should be a 2-byte write: %+v", got[1])
	}
}

func TestPeekPokeNoSideEffects(t *testing.T) {
	m := sys(64)
	m.Poke(0x10000, 4, 42)
	before := m.MainAccesses
	v, err := m.Peek(0x10000, 4)
	if err != nil || v != 42 {
		t.Fatalf("peek = %d, %v", v, err)
	}
	if m.MainAccesses != before {
		t.Fatal("peek must not count as an access")
	}
}

// refFind is the reference segment search: scratchpad first, then the main
// segments in order, by linear scan.
func refFind(spm *Segment, main []*Segment, addr uint32, size uint8) (*Segment, bool) {
	if spm != nil && spm.Contains(addr, size) {
		return spm, true
	}
	for _, s := range main {
		if s.Contains(addr, size) {
			return s, false
		}
	}
	return nil, false
}

func seg(name string, base, size uint32) *Segment {
	return &Segment{Name: name, Base: base, Data: make([]byte, size)}
}

// TestLookupMatchesLinearFind: the window-indexed lookup agrees with the
// linear reference on segment, scratchpad flag and the errors and costs
// of every access, for layouts whose segments share windows, span
// windows, overlap, are empty, end on a window boundary or at the top of
// the address space.
func TestLookupMatchesLinearFind(t *testing.T) {
	many := make([]*Segment, 260) // more segments than the table can name
	for i := range many {
		many[i] = seg("m", uint32(i+1)<<windowShift, 64)
	}
	layouts := []struct {
		name string
		spm  *Segment
		main []*Segment
	}{
		{"linked", seg("spm", 0, 1024),
			[]*Segment{seg("code", 0x100000, 0x1000), seg("data", 0x200000, 0x800), seg("stack", 0x300000, 0x10000)}},
		{"shared window", seg("spm", 0, 1024),
			[]*Segment{seg("code", 0x10000, 0x8000), seg("data", 0x20000, 0x8000)}},
		{"no spm", nil,
			[]*Segment{seg("code", 0x100000, 0x1000), seg("data", 0x200000, 0x800)}},
		{"spanning", seg("spm", 0x0FFFF0, 0x40), []*Segment{
			seg("next", 0x100030, 0x10), seg("wide", 0x2F0000, 0x120000), seg("edge", 0x7F0000, 0x10000),
			seg("after", 0x800000, 0x100), seg("top", 0xFFFFF000, 0x1000)}},
		{"empty", seg("spm", 0x500000, 0), []*Segment{
			seg("zero", 0x600000, 0), seg("host", 0x600010, 0x100), seg("lone", 0x700000, 0)}},
		{"overlap", seg("spm", 0x900000, 0x100), []*Segment{seg("main", 0x900080, 0x100), seg("dup", 0x900080, 0x100)}},
		{"many", nil, many},
	}
	sizes := []uint8{0, 1, 2, 4}
	for _, l := range layouts {
		systems := map[string]*System{
			"NewSystem": NewSystem(l.spm, l.main...),
			"literal":   {SPM: l.spm, Main: l.main}, // no window table: all linear
		}
		var probes []uint32
		all := append([]*Segment{l.spm}, l.main...)
		for _, s := range all {
			if s == nil {
				continue
			}
			end := s.Base + uint32(len(s.Data))
			for _, d := range []uint32{0, 1, 2, 3, 4, 8} {
				probes = append(probes, s.Base-d, s.Base+d, end-d, end+d)
			}
			w := s.Base >> windowShift << windowShift
			probes = append(probes, w, w-1, w-2, w-3, w+1<<windowShift-2)
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			probes = append(probes, r.Uint32(), r.Uint32()&0x00FFFFFF)
		}
		for sname, m := range systems {
			for _, addr := range probes {
				for _, size := range sizes {
					want, wantSPM := refFind(l.spm, l.main, addr, size)
					got, gotSPM := m.lookup(addr, size)
					if got != want || gotSPM != wantSPM {
						t.Fatalf("%s/%s: lookup(%#x, %d) = %s,%v, want %s,%v",
							l.name, sname, addr, size, segName(got), gotSPM, segName(want), wantSPM)
					}
					checkAccess(t, l.name+"/"+sname, m, addr, size, want, wantSPM)
				}
			}
		}
	}
}

func segName(s *Segment) string {
	if s == nil {
		return "<nil>"
	}
	return s.Name
}

// checkAccess compares Read, Write, Peek and Poke at [addr, addr+size)
// against the reference segment want.
func checkAccess(t *testing.T, layout string, m *System, addr uint32, size uint8, want *Segment, spm bool) {
	t.Helper()
	_, rcyc, rerr := m.Read(addr, size, false)
	wcyc, werr := m.Write(addr, size, 0)
	_, perr := m.Peek(addr, size)
	kerr := m.Poke(addr, size, 0)
	if want == nil {
		for _, c := range []struct {
			err  error
			verb string
		}{{rerr, "read"}, {werr, "write"}, {perr, "peek"}, {kerr, "poke"}} {
			msg := fmt.Sprintf("mem: unmapped %d-byte %s at %#x", size, c.verb, addr)
			if c.err == nil || c.err.Error() != msg {
				t.Fatalf("%s: %s(%#x, %d) error %v, want %q", layout, c.verb, addr, size, c.err, msg)
			}
		}
		return
	}
	if rerr != nil || werr != nil || perr != nil || kerr != nil {
		t.Fatalf("%s: access (%#x, %d) in %s failed: %v %v %v %v", layout, addr, size, want.Name, rerr, werr, perr, kerr)
	}
	cost := MainCost(size)
	if spm {
		cost = SPMCycles
	}
	if rcyc != cost || wcyc != cost {
		t.Fatalf("%s: access (%#x, %d) costs %d/%d, want %d", layout, addr, size, rcyc, wcyc, cost)
	}
}
