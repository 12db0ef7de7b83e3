package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"warden/internal/mem"
	"warden/internal/topology"
)

func small() *Cache { return New("t", 1024, 2, 64) } // 8 sets, 2-way

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", Ward: "W",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestInsertLookup(t *testing.T) {
	c := small()
	if _, ev := c.Insert(0x1000, Exclusive); ev {
		t.Fatal("insert into empty cache evicted")
	}
	ln := c.Lookup(0x1000)
	if ln == nil || ln.State != Exclusive || ln.Addr != 0x1000 {
		t.Fatalf("lookup after insert: %+v", ln)
	}
	if c.Lookup(0x1040) != nil {
		t.Fatal("lookup of absent block succeeded")
	}
	// Sub-block addresses resolve to the containing block.
	if c.Lookup(0x103f) == nil {
		t.Fatal("lookup within the block failed")
	}
}

func TestInsertExistingUpdatesState(t *testing.T) {
	c := small()
	c.Insert(0x1000, Shared)
	c.Insert(0x1000, Modified)
	if c.ValidLines() != 1 {
		t.Fatalf("duplicate insert created %d lines", c.ValidLines())
	}
	if st := c.Peek(0x1000).State; st != Modified {
		t.Fatalf("state = %v, want M", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small()
	// Three blocks mapping to the same set (set index = bits above block
	// offset, 8 sets): addresses 64*setCount apart collide.
	const stride = 64 * 8
	a, b, d := mem.Addr(0), mem.Addr(stride), mem.Addr(2*stride)
	c.Insert(a, Shared)
	c.Insert(b, Shared)
	c.Lookup(a) // make b the LRU
	ev, evicted := c.Insert(d, Shared)
	if !evicted {
		t.Fatal("third insert into 2-way set did not evict")
	}
	if ev.Addr != b {
		t.Fatalf("evicted %#x, want %#x (LRU)", uint64(ev.Addr), uint64(b))
	}
	if c.Peek(a) == nil || c.Peek(d) == nil || c.Peek(b) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(0x40, Modified)
	st := c.Invalidate(0x40)
	if st != Modified {
		t.Fatalf("invalidate returned %v, want M", st)
	}
	if c.Peek(0x40) != nil {
		t.Fatal("block still present after invalidate")
	}
	if st := c.Invalidate(0x40); st != Invalid {
		t.Fatal("double invalidate found a block")
	}
}

func TestCounters(t *testing.T) {
	c := small()
	c.CountInvalidation()
	c.CountDowngrade()
	c.CountDowngrade()
	if c.Invalidations != 1 || c.Downgrades != 2 {
		t.Fatalf("counters: inv=%d dg=%d", c.Invalidations, c.Downgrades)
	}
	c.Reset()
	if c.Invalidations != 0 || c.ValidLines() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestSectorMask(t *testing.T) {
	var m SectorMask
	m = m.Set(3, 2)
	if !m.Has(3) || !m.Has(4) || m.Has(2) || m.Has(5) {
		t.Fatalf("mask after Set(3,2): %b", m)
	}
	if m.Count() != 2 {
		t.Fatalf("count = %d, want 2", m.Count())
	}
	if m.Overlaps(SectorMask(0).Set(5, 1)) {
		t.Fatal("disjoint masks reported overlapping")
	}
	if !m.Overlaps(SectorMask(0).Set(4, 3)) {
		t.Fatal("overlapping masks reported disjoint")
	}
	if full := SectorMask(0).Set(0, 64); full != ^SectorMask(0) {
		t.Fatalf("full mask = %b", full)
	}
	if full := SectorMask(0).Set(0, 100); full != ^SectorMask(0) {
		t.Fatal("oversized Set must saturate")
	}
}

func TestQuickSectorMaskSetHas(t *testing.T) {
	f := func(lo8, n8 uint8) bool {
		lo, n := uint(lo8%64), uint(n8%16)
		m := SectorMask(0).Set(lo, n)
		for i := uint(0); i < 64; i++ {
			want := i >= lo && i < lo+n
			if m.Has(i) != want {
				return false
			}
		}
		return m.Count() == int(minu(n, 64-lo))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func minu(a, b uint) uint {
	if a < b {
		return a
	}
	return b
}

// TestQuickCacheNeverExceedsCapacity inserts random blocks and checks the
// structural invariants: per-set occupancy never exceeds associativity, and
// a just-inserted block is always present.
func TestQuickCacheNeverExceedsCapacity(t *testing.T) {
	c := New("q", 4096, 4, 64) // 16 sets, 4-way
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			block := mem.Addr(a) &^ 63
			c.Insert(block, Shared)
			if c.Peek(block) == nil {
				return false
			}
		}
		return c.ValidLines() <= 16*4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachDeterministic(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared)
	c.Insert(0x80, Modified)
	c.Insert(0xc0, Exclusive)
	var order1, order2 []mem.Addr
	c.ForEach(func(ln *Line) { order1 = append(order1, ln.Addr) })
	c.ForEach(func(ln *Line) { order2 = append(order2, ln.Addr) })
	if len(order1) != 3 || len(order1) != len(order2) {
		t.Fatalf("ForEach visited %d/%d lines", len(order1), len(order2))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("ForEach order not deterministic")
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		size  uint64
		assoc int
		block uint64
	}{
		{1000, 2, 64}, // size not divisible
		{1024, 0, 64}, // zero assoc
		{1024, 2, 48}, // non-power-of-two block
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", tc.size, tc.assoc, tc.block)
				}
			}()
			New("bad", tc.size, tc.assoc, tc.block)
		}()
	}
}

// flatCache is the eager tag array Cache replaced: every way of every set
// allocated up front in one row-major slice of 24-byte lines with a 64-bit
// LRU clock. It is the oracle of TestLazyMatchesFlat.
type flatCache struct {
	blockSize, numSets uint64
	assoc              int
	sets               []flatLine
	tick               uint64
	evictions          uint64
}

type flatLine struct {
	addr mem.Addr
	st   State
	lru  uint64
}

func newFlat(c *Cache) *flatCache {
	return &flatCache{blockSize: c.blockSize, numSets: c.numSets, assoc: c.assoc,
		sets: make([]flatLine, c.numSets*uint64(c.assoc))}
}

func (f *flatCache) setOf(block mem.Addr) []flatLine {
	idx := (uint64(block) / f.blockSize) & (f.numSets - 1)
	return f.sets[idx*uint64(f.assoc) : (idx+1)*uint64(f.assoc)]
}

func (f *flatCache) find(addr mem.Addr) *flatLine {
	block := addr.Block(f.blockSize)
	set := f.setOf(block)
	for i := range set {
		if set[i].st != Invalid && set[i].addr == block {
			return &set[i]
		}
	}
	return nil
}

func (f *flatCache) lookup(addr mem.Addr) *flatLine {
	ln := f.find(addr)
	if ln != nil {
		f.tick++
		ln.lru = f.tick
	}
	return ln
}

func (f *flatCache) insert(addr mem.Addr, st State) (Eviction, bool) {
	block := addr.Block(f.blockSize)
	if ln := f.lookup(block); ln != nil {
		ln.st = st
		return Eviction{}, false
	}
	set := f.setOf(block)
	victim := -1
	for i := range set {
		if set[i].st == Invalid {
			victim = i
			break
		}
	}
	var ev Eviction
	evicted := false
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		ev, evicted = Eviction{Addr: set[victim].addr, State: set[victim].st}, true
		f.evictions++
	}
	f.tick++
	set[victim] = flatLine{addr: block, st: st, lru: f.tick}
	return ev, evicted
}

func (f *flatCache) invalidate(addr mem.Addr) State {
	ln := f.find(addr)
	if ln == nil {
		return Invalid
	}
	st := ln.st
	*ln = flatLine{}
	return st
}

// contents lists the valid lines set-major, in way order (ForEach's order).
func (f *flatCache) contents() []Line {
	var out []Line
	for _, ln := range f.sets {
		if ln.st != Invalid {
			out = append(out, Line{Addr: ln.addr, State: ln.st})
		}
	}
	return out
}

// recency is Recency computed from the flat array.
func (f *flatCache) recency() []Line {
	out := []Line{}
	for s := uint64(0); s < f.numSets; s++ {
		var set []flatLine
		for _, ln := range f.sets[s*uint64(f.assoc) : (s+1)*uint64(f.assoc)] {
			if ln.st != Invalid {
				set = append(set, ln)
			}
		}
		sort.Slice(set, func(i, j int) bool { return set[i].lru > set[j].lru })
		for _, ln := range set {
			out = append(out, Line{Addr: ln.addr, State: ln.st})
		}
	}
	return out
}

// sameLine reports whether the lazy and flat lookups agree, LRU stamp
// included.
func sameLine(got *Line, want *flatLine) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Addr == want.addr && got.State == want.st && got.lru() == want.lru
}

// geometry is one cache level of the Xeon Gold 6126 model.
type geometry struct {
	name     string
	size     uint64
	assoc    int
	wantSets uint64
}

func xeonGeometries() []geometry {
	cfg := topology.XeonGold6126(2)
	return []geometry{
		{"L1", cfg.L1Size, cfg.L1Assoc, 64},
		{"L2", cfg.L2Size, cfg.L2Assoc, 512},
		// 30 MiB / (20 ways * 64 B) = 24576 sets, rounded down to 16384.
		{"L3", cfg.L3SizePerSocket(), cfg.L3Assoc, 16384},
	}
}

// TestLazyMatchesFlat drives the lazy tag array and the flat oracle with the
// same seeded random Insert/Lookup/Peek/Invalidate/Reset sequences on the
// Xeon L1, L2 and 20-way L3 geometries, and requires them to agree on every
// return value and eviction, on ForEach order, Recency, ValidLines and the
// counters.
func TestLazyMatchesFlat(t *testing.T) {
	for _, g := range xeonGeometries() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", g.name, seed), func(t *testing.T) {
				c := New(g.name, g.size, g.assoc, 64)
				if c.numSets != g.wantSets {
					t.Fatalf("%d sets, want %d", c.numSets, g.wantSets)
				}
				f := newFlat(c)
				rng := rand.New(rand.NewSource(seed))
				// A few hot sets (heavy eviction) plus a sprinkle over the
				// whole index and above it (aliasing into the same sets).
				hot := 1 + rng.Intn(8)
				addr := func() mem.Addr {
					var block uint64
					switch rng.Intn(4) {
					case 0:
						block = uint64(rng.Int63n(int64(c.numSets) * 4))
					default:
						block = uint64(rng.Intn(hot)) + c.numSets*uint64(rng.Intn(3*g.assoc))
					}
					return mem.Addr(block*64 + uint64(rng.Intn(64)))
				}
				check := func(step int) {
					t.Helper()
					var got []Line
					c.ForEach(func(ln *Line) { got = append(got, Line{Addr: ln.Addr, State: ln.State}) })
					if want := f.contents(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: ForEach order differs:\n got  %v\n want %v", step, got, want)
					}
					if got, want := c.Recency(), f.recency(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: Recency differs:\n got  %v\n want %v", step, got, want)
					}
					if got, want := c.ValidLines(), len(f.contents()); got != want {
						t.Fatalf("step %d: ValidLines %d, want %d", step, got, want)
					}
					if c.Evictions != f.evictions || c.Invalidations != 0 || c.Downgrades != 0 || c.Hits != 0 || c.Misses != 0 {
						t.Fatalf("step %d: counters %d/%d/%d/%d/%d, want evictions %d", step,
							c.Evictions, c.Invalidations, c.Downgrades, c.Hits, c.Misses, f.evictions)
					}
				}
				for step := 0; step < 20000; step++ {
					a := addr()
					switch op := rng.Intn(100); {
					case op < 45:
						st := State(1 + rng.Intn(int(Ward)))
						gotEv, gotOK := c.Insert(a, st)
						wantEv, wantOK := f.insert(a, st)
						if gotEv != wantEv || gotOK != wantOK {
							t.Fatalf("step %d: Insert(%#x) = %v,%v, want %v,%v", step, uint64(a), gotEv, gotOK, wantEv, wantOK)
						}
					case op < 75:
						if got, want := c.Lookup(a), f.lookup(a); !sameLine(got, want) {
							t.Fatalf("step %d: Lookup(%#x) = %+v, want %+v", step, uint64(a), got, want)
						}
					case op < 90:
						if got, want := c.Peek(a), f.find(a); !sameLine(got, want) {
							t.Fatalf("step %d: Peek(%#x) = %+v, want %+v", step, uint64(a), got, want)
						}
					case op < 99:
						if got, want := c.Invalidate(a), f.invalidate(a); got != want {
							t.Fatalf("step %d: Invalidate(%#x) = %v, want %v", step, uint64(a), got, want)
						}
					default:
						check(step)
						c.Reset()
						f = newFlat(c)
					}
					if step%1000 == 0 {
						check(step)
					}
				}
				check(-1)
			})
		}
	}
}

// TestLRUStampOverflowPanics: the 48-bit stamp must panic rather than wrap
// when the LRU clock would reach 2^48.
func TestLRUStampOverflowPanics(t *testing.T) {
	c := small()
	c.Insert(0x40, Shared)
	c.tick = 1<<48 - 2
	if ln := c.Lookup(0x40); ln == nil || ln.lru() != 1<<48-1 {
		t.Fatalf("stamp below 2^48 not kept exactly: %+v", ln)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LRU clock reached 2^48 without a panic")
		}
	}()
	c.Insert(0x80, Shared)
}

// TestNewAllocatesNoLines: New must not allocate the lines of the sets it
// indexes. For the Xeon L3 slice it allocates less than 1/16 of the
// numSets*assoc*24 bytes the eager 24-byte-line array took.
func TestNewAllocatesNoLines(t *testing.T) {
	g := xeonGeometries()[2]
	var c *Cache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c = New("L3", g.size, g.assoc, 64)
	runtime.ReadMemStats(&after)
	eager := c.numSets * uint64(c.assoc) * 24
	if got := after.TotalAlloc - before.TotalAlloc; got >= eager/16 {
		t.Fatalf("New allocated %d bytes, want < %d (1/16 of the eager %d)", got, eager/16, eager)
	}
	runtime.KeepAlive(c)
}

// BenchmarkCacheInsertEvict measures the host cost of one Insert into a
// full L2-sized set, which always evicts its LRU line.
func BenchmarkCacheInsertEvict(b *testing.B) {
	g := xeonGeometries()[1]
	c := New("L2", g.size, g.assoc, 64)
	stride := mem.Addr(c.numSets * 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(mem.Addr(i%64)*64+mem.Addr(i/64%16)*stride, Shared)
	}
}
