// Package cache models the Alpha 21164A's three-level cache hierarchy:
// an 8 KB direct-mapped on-chip L1 data cache, a 96 KB 3-way set-associative
// on-chip L2, and an 8 MB direct-mapped board-level L3 with 64-byte lines
// (paper Section 2.3).
//
// The model is driven by the real (simulated-address) access stream of the
// transaction engines and charges incremental latencies to the owning
// stream's clock. It is the mechanism behind two of the paper's findings:
// the standalone superiority of the locality-friendly inline log (Version 3)
// over the mirroring versions, and the graceful throughput degradation with
// growing database size (Table 8).
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Stats counts where accesses were satisfied.
type Stats struct {
	Accesses  int64
	L1Hits    int64
	L2Hits    int64
	L3Hits    int64
	Misses    int64 // satisfied by memory
	TLBMisses int64
	// Charged is the total latency charged to the clock.
	Charged sim.Dur
}

// MissRatio returns the fraction of accesses that went to memory.
func (s *Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

func (s *Stats) String() string {
	return fmt.Sprintf("acc=%d l1=%d l2=%d l3=%d mem=%d (%.1f%% mem)",
		s.Accesses, s.L1Hits, s.L2Hits, s.L3Hits, s.Misses, 100*s.MissRatio())
}

// Cache is one stream's private cache hierarchy plus its data TLB. It is
// not safe for concurrent use; every simulated CPU owns one Cache.
type Cache struct {
	clock  *sim.Clock
	params *sim.Params

	l1 directMapped
	l2 setAssoc
	l3 directMapped
	// tlb models the Alpha's associative data translation buffer; 4-way
	// associativity approximates the 21164's fully associative DTB well
	// enough to keep hot pages (logs, control words) resident.
	tlb setAssoc

	// pageShift and lineShift split addresses into pages and L3 lines.
	pageShift, lineShift uint

	stats Stats
}

// New returns a cold cache hierarchy charging latencies to clock.
func New(p *sim.Params, clock *sim.Clock) *Cache {
	c := &Cache{clock: clock, params: p}
	c.pageShift = log2(p.PageSize)
	c.lineShift = log2(p.L3Line)
	c.l1.init(p.L1Size, p.L1Line)
	c.l2.init(p.L2Size, p.L2Line, p.L2Assoc)
	c.l3.init(p.L3Size, p.L3Line)
	c.tlb.init(p.TLBEntries*p.PageSize, p.PageSize, 4)
	return c
}

// pteBase is the synthetic address of the page-table array, far above any
// data region, so PTE lines compete for cache space like real page tables.
const pteBase = uint64(1) << 40

// AccessVM is Access preceded by address translation: each 8 KB page
// touched probes the data TLB; a miss charges the fill handler and walks
// the page-table entry through the *data caches*, so the walk is cheap
// while the working set's PTEs stay cached and expensive for very large
// databases — the mechanism behind the paper's Table 8 degradation.
func (c *Cache) AccessVM(addr uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	for p, last := addr>>c.pageShift, (addr+uint64(n)-1)>>c.pageShift; p <= last; p++ {
		va := p << c.pageShift
		if c.tlb.probe(va) {
			continue
		}
		c.stats.TLBMisses++
		c.tlb.fill(va)
		c.clock.Advance(c.params.TLBFill)
		c.Access(pteBase+p*8, 8, false)
	}
	c.Access(addr, n, write)
}

// Access touches [addr, addr+n) and charges the owning clock for every
// cache line involved.
//
// Reads and writes are charged asymmetrically, like on the modelled
// machine: a read miss stalls the processor for the full memory latency,
// while a write miss is largely absorbed by the store/write buffers and
// costs only the (much smaller) WriteMiss drain pressure. This asymmetry
// is load-bearing for the paper's standalone result that mirroring by
// diff (which *reads* the cold mirror) loses to mirroring by copy (which
// only *writes* it) — Section 4.5.
func (c *Cache) Access(addr uint64, n int, write bool) {
	if n <= 0 {
		return
	}
	first := addr >> c.lineShift
	last := (addr + uint64(n) - 1) >> c.lineShift
	for l := first; l <= last; l++ {
		c.touchLine(l<<c.lineShift, write)
	}
}

// touchLine simulates one L3-line-sized access at the given aligned
// address, filling all levels on the way (write-allocate keeps later reads
// of freshly written lines hot).
func (c *Cache) touchLine(addr uint64, write bool) {
	c.stats.Accesses++

	// L1 has a smaller line; probing with the L3-aligned address is a
	// deliberate simplification: one probe per 64-byte touch.
	if c.l1.probe(addr) {
		c.stats.L1Hits++
		return
	}
	var d sim.Dur
	switch {
	case c.l2.probe(addr):
		c.stats.L2Hits++
		d = c.params.L2Hit
	case c.l3.probe(addr):
		c.stats.L3Hits++
		d = c.params.L3Hit
	default:
		c.stats.Misses++
		d = c.params.MemAccess
		c.l3.fill(addr)
	}
	if write {
		// Stores retire through the write buffer; only lines missing
		// all on-chip levels exert measurable drain pressure.
		if d == c.params.MemAccess {
			d = c.params.WriteMiss
		} else {
			d = 0
		}
	}
	c.l2.fill(addr)
	c.l1.fill(addr)
	c.stats.Charged += d
	c.clock.Advance(d)
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears counters without flushing cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush empties all levels (a cold restart, e.g. after failover to the
// backup processor).
func (c *Cache) Flush() {
	c.l1.flush()
	c.l2.flush()
	c.l3.flush()
	c.tlb.flush()
}

// directMapped is a direct-mapped tag array.
type directMapped struct {
	tags  []uint64 // tag+1, 0 = invalid
	mask  uint64   // sets-1
	shift uint
}

// log2 returns the shift for a geometry value. Line, page and set counts
// index by shift and mask, so every one must be a power of two.
func log2(v int) uint {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("cache: geometry value %d is not a power of two", v))
	}
	return uint(bits.TrailingZeros(uint(v)))
}

func (d *directMapped) init(size, line int) {
	sets := size / line
	d.mask = 1<<log2(sets) - 1
	d.shift = log2(line)
	d.tags = make([]uint64, sets)
}

func (d *directMapped) probe(addr uint64) bool {
	b := addr >> d.shift
	return d.tags[b&d.mask] == b+1
}

func (d *directMapped) fill(addr uint64) {
	b := addr >> d.shift
	d.tags[b&d.mask] = b + 1
}

func (d *directMapped) flush() {
	for i := range d.tags {
		d.tags[i] = 0
	}
}

// setAssoc is an N-way set-associative tag array with LRU replacement.
type setAssoc struct {
	tags  []uint64 // sets*assoc entries, tag+1, 0 = invalid
	used  []uint32 // LRU ticks, parallel to tags
	assoc int
	mask  uint64 // sets-1
	shift uint
	tick  uint32
}

func (s *setAssoc) init(size, line, assoc int) {
	s.assoc = assoc
	sets := size / (line * assoc)
	s.mask = 1<<log2(sets) - 1
	s.shift = log2(line)
	s.tags = make([]uint64, sets*assoc)
	s.used = make([]uint32, sets*assoc)
}

func (s *setAssoc) probe(addr uint64) bool {
	b := addr >> s.shift
	base := int(b&s.mask) * s.assoc
	s.tick++
	for w := 0; w < s.assoc; w++ {
		if s.tags[base+w] == b+1 {
			s.used[base+w] = s.tick
			return true
		}
	}
	return false
}

func (s *setAssoc) fill(addr uint64) {
	b := addr >> s.shift
	base := int(b&s.mask) * s.assoc
	victim, oldest := base, s.used[base]
	for w := 0; w < s.assoc; w++ {
		if s.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if s.used[base+w] < oldest {
			victim, oldest = base+w, s.used[base+w]
		}
	}
	s.tick++
	s.tags[victim] = b + 1
	s.used[victim] = s.tick
}

func (s *setAssoc) flush() {
	for i := range s.tags {
		s.tags[i] = 0
		s.used[i] = 0
	}
}
