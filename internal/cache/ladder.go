package cache

import (
	"fmt"
	"math/bits"
)

// Ladder simulates every direct-mapped capacity of one line size and kind
// at once: one level per power-of-two size from the line size up to
// MaxSize, all fed by a single access stream (Mattson et al., "Evaluation
// techniques for storage hierarchies", IBM Syst. J. 1970; Hill & Smith,
// "Evaluating associativity in CPU caches", IEEE TC 1989).
//
// In this cache model a write never changes direct-mapped state (write
// through, no write allocation), so each set holds the line last read into
// it. A line present at size S is then present at 2S as well: the lines
// mapping to its set at 2S are a subset of those mapping to its set at S,
// and it is the most recent of the larger group. So a read walks the
// levels smallest first, filling each level that misses, and stops at the
// first level that hits: every larger level hits too and keeps its state.
// The hit counts of Counts equal those of a Cache of that size and kind
// fed the same stream.
type Ladder struct {
	lineSize        uint32
	lineShift       uint
	instructionOnly bool
	// tags holds the levels one after another, smallest first: level k has
	// 1<<k sets and starts at index 1<<k - 1. A set holds its line number
	// plus one; zero marks an empty set.
	tags []uint32
	// stops[k] counts the reads whose walk stopped at level k (hit there
	// and missed below).
	stops []uint64
	reads uint64
}

// NewLadder returns an empty ladder of direct-mapped caches with the given
// line size (0 means DefaultLineSize); instructionOnly makes every level an
// instruction cache.
func NewLadder(lineSize uint32, instructionOnly bool) (*Ladder, error) {
	cfg := Config{Size: MaxSize, LineSize: lineSize, Assoc: 1, InstructionOnly: instructionOnly}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	levels := bits.TrailingZeros32(MaxSize/cfg.LineSize) + 1
	return &Ladder{
		lineSize:        cfg.LineSize,
		lineShift:       uint(bits.TrailingZeros32(cfg.LineSize)),
		instructionOnly: instructionOnly,
		tags:            make([]uint32, 1<<levels-1),
		stops:           make([]uint64, levels),
	}, nil
}

// Serves reports whether the cache serves an access of this kind: a read,
// and on an instruction cache only a fetch. Writes go through to main
// memory at its cost and leave the state as it is; data accesses bypass an
// instruction cache.
func (l *Ladder) Serves(fetch, write bool) bool {
	return !write && (fetch || !l.instructionOnly)
}

// Read feeds one access the cache serves (see Serves) to every level.
func (l *Ladder) Read(addr uint32) {
	l.reads++
	line := addr >> l.lineShift
	tags := l.tags
	// Level k's mask m = 1<<k - 1 is also its offset in tags.
	for k, m := 0, uint32(0); k < len(l.stops); k, m = k+1, m<<1|1 {
		i := m + line&m
		if tags[i] == line+1 {
			l.stops[k]++
			return
		}
		tags[i] = line + 1
	}
}

// Counts returns the hits and misses of the direct-mapped cache of the
// given size over the reads fed so far. The size must be a power of two
// between the line size and MaxSize.
func (l *Ladder) Counts(size uint32) (hits, misses uint64, err error) {
	if size < l.lineSize || size > MaxSize || size&(size-1) != 0 {
		return 0, 0, fmt.Errorf("cache: ladder of %d-byte lines has no size %d", l.lineSize, size)
	}
	for _, n := range l.stops[:bits.TrailingZeros32(size/l.lineSize)+1] {
		hits += n
	}
	return hits, l.reads - hits, nil
}

// Release drops the tag array once the stream is over: Counts still
// answers, and a later Read panics.
func (l *Ladder) Release() { l.tags = nil }
