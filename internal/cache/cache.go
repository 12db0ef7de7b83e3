// Package cache models set-associative cache tag arrays with LRU
// replacement, per-block coherence state, and byte-sectored write masks.
//
// The package is mechanism only: it answers "is this block here, in what
// state, and what gets evicted if I insert" while the coherence protocol
// (internal/coherence, internal/core) decides what those events mean. Block
// *data* is not stored here — canonical data lives in internal/mem, and
// WARD-state private copies live in the protocol layer — so the tag arrays
// stay cheap even for large simulated footprints.
//
// A tag array is allocated on first touch: New allocates only a 4-byte
// index entry per set, and a set's 16-byte lines come into existence when
// the first block is inserted into it. A many-socket machine whose
// program touches a few thousand blocks therefore costs kilobytes, not
// the tens of megabytes its full L1/L2/L3 geometry would.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"warden/internal/mem"
)

// State is a coherence state as tracked by a cache line or directory entry.
// It covers the classic MESI states (Nagarajan et al.) plus the WARD state W
// introduced by the WARDen protocol (§5.1 of the paper).
type State uint8

const (
	// Invalid: the block is not present (or present but unusable).
	Invalid State = iota
	// Shared: read-only copy; other caches may also hold copies.
	Shared
	// Owned: dirty but shared — this cache sources the data for readers
	// instead of writing it back (the MOESI baseline's O state).
	Owned
	// Exclusive: the only copy, clean.
	Exclusive
	// Modified: the only copy, dirty.
	Modified
	// Ward: coherence is disabled for this block; the holder may read and
	// write a private copy without notifying anyone until reconciliation.
	Ward
)

// String returns the conventional one-letter name of the state.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	case Ward:
		return "W"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// SectorMask records which sectors of a block have been written while the
// block was in the WARD state. With byte sectoring on 64-byte blocks (§6.1)
// each bit covers one byte.
type SectorMask uint64

// Set marks sectors [lo, lo+n) as written.
func (m SectorMask) Set(lo, n uint) SectorMask {
	if n >= 64 {
		return ^SectorMask(0)
	}
	return m | SectorMask((uint64(1)<<n)-1)<<lo
}

// Has reports whether sector i is marked written.
func (m SectorMask) Has(i uint) bool { return m&(1<<i) != 0 }

// Count returns the number of written sectors.
func (m SectorMask) Count() int { return bits.OnesCount64(uint64(m)) }

// Overlaps reports whether two masks mark any common sector.
func (m SectorMask) Overlaps(o SectorMask) bool { return m&o != 0 }

// Line is one cache line's metadata: 16 bytes, the block address plus the
// state and a 48-bit LRU stamp packed into the second word. (W-state write
// masks live with the private block copies in internal/core, not in the tag
// array.)
type Line struct {
	Addr  mem.Addr // block-aligned address; meaningful only when State != Invalid
	State State
	lruHi uint16 // LRU stamp bits 32..47
	lruLo uint32 // LRU stamp bits 0..31
}

func (l *Line) lru() uint64 { return uint64(l.lruHi)<<32 | uint64(l.lruLo) }

func (l *Line) setLRU(t uint64) { l.lruHi, l.lruLo = uint16(t>>32), uint32(t) }

// maxTick bounds the LRU clock to what a Line's 48-bit stamp holds. At one
// tick per access a run would need years of host time to reach it, so
// overflow is a bug, not a case to handle by wrapping.
const maxTick = 1<<48 - 1

// chunkLines is the target size, in lines, of one allocation of set
// storage (8 KiB of 16-byte lines).
const chunkLines = 512

// Eviction describes a block displaced by an insertion.
type Eviction struct {
	Addr  mem.Addr
	State State
}

// Cache is a set-associative tag array. Create with New.
//
// Sets are allocated on first touch. index maps a set number to 1 + the
// slot its lines occupy, or 0 for a set nothing was ever inserted into (it
// holds no valid line, so lookups miss without touching set storage).
// Slots are handed out densely in first-touch order and live in fixed-size
// chunks that never move, so *Line pointers stay valid and a run allocates
// only the sets it touches, rounded up to one chunk. index and the lines
// are pointer-free; the GC scans only the short chunks list.
type Cache struct {
	name       string
	blockSize  uint64
	numSets    uint64
	assoc      int
	index      []uint32 // per set: 1 + slot, 0 = never touched
	chunks     [][]Line // slot s is chunks[s>>chunkShift], lines at (s&chunkMask)*assoc
	chunkShift uint
	chunkMask  uint32
	slots      uint32 // slots handed out
	tick       uint64 // global LRU clock

	// Counters maintained for the evaluation (Figs. 9 and 10 count
	// invalidations and downgrades per cache).
	Invalidations uint64
	Downgrades    uint64
	Hits          uint64
	Misses        uint64
	Evictions     uint64
}

// New returns a cache with the given total size, associativity and block
// size. size must be divisible by assoc*blockSize and the resulting set
// count must be a power of two.
func New(name string, size uint64, assoc int, blockSize uint64) *Cache {
	if assoc <= 0 || blockSize == 0 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: bad geometry assoc=%d block=%d", name, assoc, blockSize))
	}
	if size%(uint64(assoc)*blockSize) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible by assoc*block", name, size))
	}
	numSets := size / (uint64(assoc) * blockSize)
	if numSets&(numSets-1) != 0 {
		// Round down to a power of two; exotic set counts (e.g. 20-way LLC
		// slices) still work, just with a power-of-two index.
		numSets = uint64(1) << (bits.Len64(numSets) - 1)
	}
	// A chunk holds a power-of-two number of sets, about chunkLines lines,
	// and never more sets than the cache has.
	shift := uint(0)
	for uint64(2)<<shift <= numSets && (2<<shift)*assoc <= chunkLines {
		shift++
	}
	return &Cache{
		name:       name,
		blockSize:  blockSize,
		numSets:    numSets,
		assoc:      assoc,
		index:      make([]uint32, numSets),
		chunkShift: shift,
		chunkMask:  1<<shift - 1,
	}
}

// Name returns the cache's diagnostic name (e.g. "L1-3").
func (c *Cache) Name() string { return c.name }

// BlockSize returns the cache's block size in bytes.
func (c *Cache) BlockSize() uint64 { return c.blockSize }

// set returns the lines of the set whose index entry is ref (nonzero).
func (c *Cache) set(ref uint32) []Line {
	s := ref - 1
	base := int(s&c.chunkMask) * c.assoc
	return c.chunks[s>>c.chunkShift][base : base+c.assoc]
}

// setIndex returns the number of the set addr maps to.
func (c *Cache) setIndex(addr mem.Addr) uint64 {
	return (uint64(addr) / c.blockSize) & (c.numSets - 1)
}

// setOf returns addr's set, or nil if nothing was ever inserted into it.
func (c *Cache) setOf(addr mem.Addr) []Line {
	ref := c.index[c.setIndex(addr)]
	if ref == 0 {
		return nil
	}
	return c.set(ref)
}

// touch returns addr's set, allocating it on first use.
func (c *Cache) touch(addr mem.Addr) []Line {
	idx := c.setIndex(addr)
	if ref := c.index[idx]; ref != 0 {
		return c.set(ref)
	}
	if c.slots>>c.chunkShift == uint32(len(c.chunks)) {
		c.chunks = append(c.chunks, make([]Line, (c.chunkMask+1)*uint32(c.assoc)))
	}
	c.slots++
	c.index[idx] = c.slots
	return c.set(c.slots)
}

// stamp advances the LRU clock and returns the new time.
func (c *Cache) stamp() uint64 {
	if c.tick == maxTick {
		panic(fmt.Sprintf("cache %s: LRU clock overflowed 48 bits", c.name))
	}
	c.tick++
	return c.tick
}

// Lookup finds the line holding addr's block. It returns nil if the block is
// not present in a valid state. The LRU clock is touched on hit.
func (c *Cache) Lookup(addr mem.Addr) *Line {
	block := addr.Block(c.blockSize)
	set := c.setOf(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			set[i].setLRU(c.stamp())
			return &set[i]
		}
	}
	return nil
}

// Peek is Lookup without touching LRU state or counters; for assertions and
// protocol bookkeeping.
func (c *Cache) Peek(addr mem.Addr) *Line {
	block := addr.Block(c.blockSize)
	set := c.setOf(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			return &set[i]
		}
	}
	return nil
}

// Insert places addr's block in the cache with the given state, evicting the
// LRU valid line of the set if it is full. It returns the eviction (if any)
// so the protocol can write back or reconcile the victim. Inserting a block
// that is already present just updates its state.
func (c *Cache) Insert(addr mem.Addr, st State) (Eviction, bool) {
	block := addr.Block(c.blockSize)
	set := c.touch(block)
	// One pass finds a hit, else the first free way, else the valid way
	// with the oldest stamp (the first such way on a tie).
	free, oldest := -1, -1
	var oldestLRU uint64
	for i := range set {
		ln := &set[i]
		switch {
		case ln.State == Invalid:
			if free < 0 {
				free = i
			}
		case ln.Addr == block:
			ln.setLRU(c.stamp())
			ln.State = st
			return Eviction{}, false
		case oldest < 0 || ln.lru() < oldestLRU:
			oldest, oldestLRU = i, ln.lru()
		}
	}
	var ev Eviction
	evicted := false
	victim := free
	if victim < 0 {
		victim = oldest
		ev = Eviction{Addr: set[victim].Addr, State: set[victim].State}
		evicted = true
		c.Evictions++
	}
	set[victim] = Line{Addr: block, State: st}
	set[victim].setLRU(c.stamp())
	return ev, evicted
}

// Invalidate removes addr's block, returning its prior state. The caller
// decides whether this counts as a coherence invalidation (counted via
// CountInvalidation) or a silent drop.
func (c *Cache) Invalidate(addr mem.Addr) State {
	ln := c.Peek(addr)
	if ln == nil {
		return Invalid
	}
	st := ln.State
	*ln = Line{}
	return st
}

// CountInvalidation records a coherence-driven invalidation at this cache.
func (c *Cache) CountInvalidation() { c.Invalidations++ }

// CountDowngrade records a coherence-driven downgrade (M/E -> S) at this
// cache.
func (c *Cache) CountDowngrade() { c.Downgrades++ }

// ForEach calls fn for every valid line. Iteration order is deterministic
// (by set index, then by way). fn must not insert or invalidate lines.
func (c *Cache) ForEach(fn func(*Line)) {
	for _, ref := range c.index {
		if ref == 0 {
			continue
		}
		set := c.set(ref)
		for i := range set {
			if set[i].State != Invalid {
				fn(&set[i])
			}
		}
	}
}

// Recency returns copies of every valid line, set-major with each set's
// lines ordered most-recently-used first. The absolute LRU clock is not
// included (the returned lines have a zero clock): two caches with equal
// Recency respond identically to any future access sequence, which is
// exactly the replacement-relevant state canonical hashing needs
// (internal/modelcheck).
func (c *Cache) Recency() []Line {
	out := make([]Line, 0, c.assoc)
	for _, ref := range c.index {
		if ref == 0 {
			continue
		}
		set := c.set(ref)
		start := len(out)
		for i := range set {
			if set[i].State != Invalid {
				out = append(out, set[i])
			}
		}
		lines := out[start:]
		sort.Slice(lines, func(i, j int) bool { return lines[i].lru() > lines[j].lru() })
		for i := range lines {
			lines[i].setLRU(0)
		}
	}
	return out
}

// ValidLines reports the number of valid lines, for occupancy assertions.
func (c *Cache) ValidLines() int {
	n := 0
	c.ForEach(func(*Line) { n++ })
	return n
}

// Reset invalidates every line and clears counters. Set storage already
// allocated is kept for reuse.
func (c *Cache) Reset() {
	clear(c.index)
	for _, ch := range c.chunks {
		clear(ch)
	}
	c.slots = 0
	c.tick = 0
	c.Invalidations, c.Downgrades, c.Hits, c.Misses, c.Evictions = 0, 0, 0, 0, 0
}
