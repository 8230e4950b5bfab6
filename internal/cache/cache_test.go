package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{Size: 64}, {Size: 128}, {Size: 8192},
		{Size: 1024, Assoc: 2}, {Size: 1024, Assoc: 4, LineSize: 32},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	bad := []Config{
		{Size: 0}, {Size: 96}, {Size: 64, LineSize: 12},
		{Size: 64, Assoc: -1}, {Size: 16, Assoc: 2, LineSize: 16},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
}

func TestDirectMappedHitMiss(t *testing.T) {
	c := mustNew(t, Config{Size: 64}) // 4 lines of 16 bytes
	if cyc := c.Read(0x1000); cyc != MissCycles {
		t.Fatalf("cold read cost %d, want %d", cyc, MissCycles)
	}
	if cyc := c.Read(0x1000); cyc != HitCycles {
		t.Fatalf("warm read cost %d, want %d", cyc, HitCycles)
	}
	// Same line, different word: hit.
	if cyc := c.Read(0x100C); cyc != HitCycles {
		t.Fatalf("same-line read cost %d, want hit", cyc)
	}
	// Conflicting line (same index, different tag): 0x1000 + 64.
	if cyc := c.Read(0x1040); cyc != MissCycles {
		t.Fatalf("conflict read cost %d, want miss", cyc)
	}
	// Original line was evicted.
	if cyc := c.Read(0x1000); cyc != MissCycles {
		t.Fatalf("evicted read cost %d, want miss", cyc)
	}
	if c.Hits != 2 || c.Misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 2, 3", c.Hits, c.Misses)
	}
}

func TestTwoWayLRUAvoidsConflict(t *testing.T) {
	dm := mustNew(t, Config{Size: 64, Assoc: 1})
	sa := mustNew(t, Config{Size: 64, Assoc: 2})
	// Two addresses that conflict in the direct-mapped cache. With 2-way
	// (2 sets of 2 ways), line index = (addr/16) % 2: choose both even.
	a, b := uint32(0x000), uint32(0x040)
	dm.Read(a)
	dm.Read(b)
	sa.Read(a)
	sa.Read(b)
	// Re-access a: direct-mapped misses (b evicted it), 2-way hits.
	if cyc := dm.Read(a); cyc != MissCycles {
		t.Errorf("direct-mapped re-read: %d, want miss", cyc)
	}
	if cyc := sa.Read(a); cyc != HitCycles {
		t.Errorf("2-way re-read: %d, want hit", cyc)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2 sets; fill set 0 with lines A and B, touch A, insert C:
	// B (least recently used) must be evicted.
	c := mustNew(t, Config{Size: 64, Assoc: 2})
	A, B, C := uint32(0x000), uint32(0x040), uint32(0x080)
	c.Read(A)
	c.Read(B)
	c.Read(A) // A most recent
	c.Read(C) // evicts B
	if !c.Contains(A) {
		t.Error("A should still be cached")
	}
	if c.Contains(B) {
		t.Error("B should have been evicted (LRU)")
	}
	if !c.Contains(C) {
		t.Error("C should be cached")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := mustNew(t, Config{Size: 64})
	if cyc := c.Write(0x2000, 4); cyc != 4 {
		t.Fatalf("word write cost %d, want 4", cyc)
	}
	if c.Contains(0x2000) {
		t.Fatal("write must not allocate")
	}
	if cyc := c.Write(0x2000, 2); cyc != 2 {
		t.Fatalf("halfword write cost %d, want 2", cyc)
	}
	// A write to a cached line keeps it valid.
	c.Read(0x2000)
	c.Write(0x2000, 4)
	if !c.Contains(0x2000) {
		t.Fatal("write-through must keep the line valid")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, Config{Size: 64})
	c.Read(0x0)
	c.Read(0x0)
	c.Flush()
	if c.Hits != 0 || c.Misses != 0 || c.Contains(0x0) {
		t.Fatal("flush did not reset state")
	}
}

// TestPropertyRepeatAccessAlwaysHits: any read immediately repeated is a hit,
// for arbitrary cache geometry and address.
func TestPropertyRepeatAccessAlwaysHits(t *testing.T) {
	f := func(sizeExp uint8, assocExp uint8, addr uint32) bool {
		size := uint32(64) << (sizeExp % 8) // 64 B .. 8 KB
		assoc := 1 << (assocExp % 3)        // 1, 2, 4
		c, err := New(Config{Size: size, Assoc: assoc})
		if err != nil {
			return true
		}
		c.Read(addr)
		return c.Read(addr) == HitCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWorkingSetFitsAllHitsSecondPass: if the working set fits, a
// second sequential pass over it hits on every access.
func TestPropertyWorkingSetFitsAllHitsSecondPass(t *testing.T) {
	f := func(sizeExp uint8, base uint32) bool {
		size := uint32(64) << (sizeExp % 8)
		c, err := New(Config{Size: size})
		if err != nil {
			return true
		}
		base &^= size - 1 // aligned working set of exactly the cache size
		for a := base; a < base+size; a += 4 {
			c.Read(a)
		}
		before := c.Misses
		for a := base; a < base+size; a += 4 {
			c.Read(a)
		}
		return c.Misses == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestNumSets(t *testing.T) {
	if n := (Config{Size: 8192}).NumSets(); n != 512 {
		t.Errorf("8K direct mapped: %d sets, want 512", n)
	}
	if n := (Config{Size: 1024, Assoc: 4}).NumSets(); n != 16 {
		t.Errorf("1K 4-way: %d sets, want 16", n)
	}
}

// refCache is the reference model: the cache indexed by division and
// modulo over a slice of sets, with the same LRU replacement.
type refCache struct {
	lineSize     uint32
	sets         [][]way
	clock        uint64
	hits, misses uint64
}

func newRef(cfg Config) *refCache {
	cfg = cfg.WithDefaults()
	sets := make([][]way, cfg.NumSets())
	for i := range sets {
		sets[i] = make([]way, cfg.Assoc)
	}
	return &refCache{lineSize: cfg.LineSize, sets: sets}
}

func (c *refCache) lookup(addr uint32) (set []way, tag uint32, hit *way) {
	line := addr / c.lineSize
	set, tag = c.sets[line%uint32(len(c.sets))], line/uint32(len(c.sets))
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return set, tag, &set[i]
		}
	}
	return set, tag, nil
}

func (c *refCache) read(addr uint32) int {
	c.clock++
	set, tag, w := c.lookup(addr)
	if w != nil {
		w.lru = c.clock
		c.hits++
		return HitCycles
	}
	c.misses++
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lru < victim.lru {
			victim = &set[i]
		}
	}
	*victim = way{valid: true, tag: tag, lru: c.clock}
	return MissCycles
}

func (c *refCache) write(addr uint32, size uint8) int {
	c.clock++
	if _, _, w := c.lookup(addr); w != nil {
		w.lru = c.clock
	}
	if size == 4 {
		return 4
	}
	return 2
}

// TestMatchesReferenceModel: on seeded random access streams, the
// shift-and-mask cache returns the same cost for every access, and ends
// with the same hits, misses and contents, as the div/mod reference, for
// every geometry from 64 B to 8 KiB x assoc {1, 2, 4} x line {4, 16, 64},
// unified and instruction-only (where, as in mem.System, only fetches
// reach the cache).
func TestMatchesReferenceModel(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for size := uint32(64); size <= 8192; size *= 2 {
		for _, assoc := range []int{1, 2, 4} {
			for _, line := range []uint32{4, 16, 64} {
				for _, ionly := range []bool{false, true} {
					cfg := Config{Size: size, Assoc: assoc, LineSize: line, InstructionOnly: ionly}
					if cfg.Validate() != nil {
						continue
					}
					c, ref := mustNew(t, cfg), newRef(cfg)
					base := r.Uint32()
					for i := 0; i < 3000; i++ {
						// Mostly a window of four cache sizes, so hits,
						// conflicts and evictions all occur; some far away.
						addr := base + r.Uint32()%(4*size)
						if r.Intn(8) == 0 {
							addr = r.Uint32()
						}
						fetch := r.Intn(2) == 0
						if ionly && !fetch {
							continue
						}
						if fetch || r.Intn(2) == 0 {
							if got, want := c.Read(addr), ref.read(addr); got != want {
								t.Fatalf("%+v: read #%d at %#x cost %d, want %d", cfg, i, addr, got, want)
							}
						} else {
							sz := uint8(1) << r.Intn(3)
							if got, want := c.Write(addr, sz), ref.write(addr, sz); got != want {
								t.Fatalf("%+v: write #%d at %#x cost %d, want %d", cfg, i, addr, got, want)
							}
						}
					}
					if c.Hits != ref.hits || c.Misses != ref.misses {
						t.Fatalf("%+v: hits/misses %d/%d, want %d/%d", cfg, c.Hits, c.Misses, ref.hits, ref.misses)
					}
					for i := 0; i < 200; i++ {
						addr := base + r.Uint32()%(4*size)
						if _, _, w := ref.lookup(addr); c.Contains(addr) != (w != nil) {
							t.Fatalf("%+v: Contains(%#x) = %v, want %v", cfg, addr, c.Contains(addr), w != nil)
						}
					}
				}
			}
		}
	}
}

// TestValidateRejectsOverflowingGeometry: an associativity beyond the line
// count, which once wrapped LineSize*Assoc to zero and divided by it, and
// sizes above MaxSize are errors, not panics or huge allocations.
func TestValidateRejectsOverflowingGeometry(t *testing.T) {
	bad := []Config{
		{Size: 1024, Assoc: 1 << 28},
		{Size: 1024, Assoc: 1 << 30, LineSize: 4},
		{Size: 1024, Assoc: 65},
		{Size: 1024, LineSize: 1 << 31, Assoc: 2},
		{Size: 16, LineSize: 32},
		{Size: MaxSize * 2},
		{Size: 64 << 20},
		{Size: 1 << 31},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
	for _, cfg := range []Config{{Size: MaxSize}, {Size: 1024, Assoc: 64}, {Size: MaxSize, Assoc: 4096}} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}
