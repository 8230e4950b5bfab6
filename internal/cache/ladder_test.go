package cache

import (
	"encoding/binary"
	"testing"
)

// feed replays one access stream against a Cache the way the memory system
// routes it: fetches always read the cache, data reads and writes only a
// unified one.
func feed(c *Cache, addr uint32, size uint8, fetch, write bool) {
	switch {
	case write && !c.cfg.InstructionOnly:
		c.Write(addr, size)
	case !write && (fetch || !c.cfg.InstructionOnly):
		c.Read(addr)
	}
}

// FuzzLadder: a ladder fed an access stream must count, at every size, the
// hits and misses of a direct-mapped Cache of that size, line size and kind
// fed the same stream. The first byte picks the line size; every further
// three bytes are one access: its kind (read, fetch or write) and width
// from the first byte, its address from the two others and the first
// byte's top bits, spread over 256 KiB so that every size sees conflicts.
func FuzzLadder(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0x01, 0x00, 0x10, 0x01, 0x04, 0x10, 0x00, 0x00, 0x10, 0x02, 0x00, 0x10, 0x00, 0x00, 0x10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		lineSize := uint32(4) << (data[0] % 4)
		var caches []*Cache
		ladders := map[bool]*Ladder{}
		for _, icache := range []bool{false, true} {
			l, err := NewLadder(lineSize, icache)
			if err != nil {
				t.Fatal(err)
			}
			ladders[icache] = l
			for size := lineSize; size <= MaxSize; size *= 2 {
				c, err := New(Config{Size: size, LineSize: lineSize, Assoc: 1, InstructionOnly: icache})
				if err != nil {
					t.Fatal(err)
				}
				caches = append(caches, c)
			}
		}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			op := ops[0]
			fetch, write := op&3 == 1, op&3 >= 2
			size := uint8(1) << ((op >> 2 & 3) % 3)
			addr := uint32(binary.LittleEndian.Uint16(ops[1:]))<<2 | uint32(op>>6)
			for _, l := range ladders {
				if l.Serves(fetch, write) {
					l.Read(addr)
				}
			}
			for _, c := range caches {
				feed(c, addr, size, fetch, write)
			}
		}
		for _, c := range caches {
			cfg := c.Config()
			hits, misses, err := ladders[cfg.InstructionOnly].Counts(cfg.Size)
			if err != nil {
				t.Fatal(err)
			}
			if hits != c.Hits || misses != c.Misses {
				t.Fatalf("%+v: ladder hits/misses %d/%d, cache %d/%d", cfg, hits, misses, c.Hits, c.Misses)
			}
		}
	})
}

func TestLadderCountsRejectsSizesItLacks(t *testing.T) {
	l, err := NewLadder(0, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []uint32{0, 8, 48, MaxSize * 2} {
		if _, _, err := l.Counts(size); err == nil {
			t.Errorf("Counts(%d) = nil error, want one", size)
		}
	}
	if _, err := NewLadder(12, false); err == nil {
		t.Error("NewLadder(12) = nil error, want one")
	}
}
