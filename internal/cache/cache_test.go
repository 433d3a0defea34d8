package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestCache() (*Cache, *sim.Clock, *sim.Params) {
	p := sim.Default()
	clk := &sim.Clock{}
	return New(&p, clk), clk, &p
}

func TestColdMissThenHit(t *testing.T) {
	c, clk, p := newTestCache()
	c.Access(0x1000, 8, false)
	if got := clk.Now(); got != sim.Time(p.MemAccess) {
		t.Fatalf("cold read charged %v, want %v", got, p.MemAccess)
	}
	before := clk.Now()
	c.Access(0x1000, 8, false)
	if clk.Now() != before {
		t.Fatalf("L1 hit charged %v", clk.Now()-before)
	}
	s := c.Stats()
	if s.Misses != 1 || s.L1Hits != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestReadMissVsWriteMissAsymmetry(t *testing.T) {
	// The paper's V1-vs-V2 standalone result depends on write misses
	// being absorbed by the write buffer while read misses stall.
	c, clk, p := newTestCache()
	c.Access(0x10000, 8, true)
	writeCost := clk.Now()
	if writeCost != sim.Time(p.WriteMiss) {
		t.Fatalf("cold write charged %v, want WriteMiss %v", writeCost, p.WriteMiss)
	}
	c2, clk2, _ := newTestCache()
	c2.Access(0x10000, 8, false)
	if readCost := clk2.Now(); readCost <= writeCost {
		t.Fatalf("read miss (%v) not more expensive than write miss (%v)", readCost, writeCost)
	}
}

func TestWriteAllocateMakesReadsHit(t *testing.T) {
	c, clk, _ := newTestCache()
	c.Access(0x2000, 8, true)
	before := clk.Now()
	c.Access(0x2000, 8, false) // must hit: write-allocate
	if clk.Now() != before {
		t.Fatal("read after write missed: no write-allocate")
	}
}

func TestMultiLineAccessTouchesEveryLine(t *testing.T) {
	c, _, p := newTestCache()
	c.Access(0, p.L3Line*4, false)
	if got := c.Stats().Accesses; got != 4 {
		t.Fatalf("4-line access counted %d lines", got)
	}
	// Unaligned span crossing one boundary touches two lines.
	c2, _, _ := newTestCache()
	c2.Access(uint64(p.L3Line-1), 2, false)
	if got := c2.Stats().Accesses; got != 2 {
		t.Fatalf("boundary-crossing access counted %d lines, want 2", got)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	// a and b alias in the direct-mapped L1 and L3 and share an L2 set;
	// the 3-way L2 retains both, so the re-access to a is an L2 hit
	// (missing L1 where b evicted it).
	c, _, p := newTestCache()
	a := uint64(0)
	b := uint64(p.L3Size)
	c.Access(a, 8, false)
	c.Access(b, 8, false)
	c.Access(a, 8, false)
	s := c.Stats()
	if s.Misses != 2 || s.L2Hits != 1 {
		t.Fatalf("conflicting lines: %+v, want 2 memory misses and 1 L2 hit", s)
	}
}

func TestL2Associativity(t *testing.T) {
	// Three addresses mapping to the same L2 set fit in a 3-way L2; the
	// L1 is direct-mapped so they conflict there, but L2 must hold all
	// three (round-robin re-access stays off memory).
	c, _, p := newTestCache()
	stride := uint64(p.L2Size / p.L2Assoc)
	addrs := []uint64{0, stride, 2 * stride}
	for _, a := range addrs {
		c.Access(a, 8, false)
	}
	c.ResetStats()
	for _, a := range addrs {
		c.Access(a, 8, false)
	}
	s := c.Stats()
	if s.Misses != 0 {
		t.Fatalf("3-way set should hold 3 conflicting lines; %d memory misses (%+v)", s.Misses, s)
	}
}

func TestFlush(t *testing.T) {
	c, _, _ := newTestCache()
	c.Access(0x3000, 8, false)
	c.Flush()
	c.ResetStats()
	c.Access(0x3000, 8, false)
	if got := c.Stats().Misses; got != 1 {
		t.Fatalf("access after Flush: %d misses, want 1", got)
	}
}

func TestTLBMissAndRefill(t *testing.T) {
	c, clk, p := newTestCache()
	c.AccessVM(0x100000, 8, false)
	s := c.Stats()
	if s.TLBMisses != 1 {
		t.Fatalf("TLBMisses = %d, want 1", s.TLBMisses)
	}
	// Cost: TLB fill + PTE read miss + data read miss.
	want := sim.Time(p.TLBFill + 2*p.MemAccess)
	if clk.Now() != want {
		t.Fatalf("cold VM access charged %v, want %v", clk.Now(), want)
	}
	c.AccessVM(0x100000+8, 8, false)
	if got := c.Stats().TLBMisses; got != 1 {
		t.Fatalf("same-page access re-missed TLB: %d", got)
	}
}

func TestTLBPageCrossing(t *testing.T) {
	c, _, p := newTestCache()
	c.AccessVM(uint64(p.PageSize)-4, 8, false) // spans two pages
	if got := c.Stats().TLBMisses; got != 2 {
		t.Fatalf("page-crossing access: %d TLB misses, want 2", got)
	}
}

func TestTLBCapacity(t *testing.T) {
	c, _, p := newTestCache()
	// Touch far more pages than TLB entries, then re-touch the first:
	// it must have been evicted.
	for i := 0; i < p.TLBEntries*4; i++ {
		c.AccessVM(uint64(i*p.PageSize), 8, false)
	}
	c.ResetStats()
	c.AccessVM(0, 8, false)
	if got := c.Stats().TLBMisses; got != 1 {
		t.Fatalf("first page still in TLB after 4x capacity sweep (misses=%d)", got)
	}
}

func TestZeroLengthAccess(t *testing.T) {
	c, clk, _ := newTestCache()
	c.Access(0, 0, false)
	c.AccessVM(0, 0, true)
	if clk.Now() != 0 || c.Stats().Accesses != 0 {
		t.Fatal("zero-length access had effects")
	}
}

// TestRepeatAccessAlwaysHits: any address re-accessed immediately is an L1
// hit, regardless of the address pattern that preceded it.
func TestRepeatAccessAlwaysHits(t *testing.T) {
	c, _, _ := newTestCache()
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			c.Access(uint64(a), 4, a%2 == 0)
			c.ResetStats()
			c.Access(uint64(a), 4, false)
			s := c.Stats()
			if s.L1Hits != s.Accesses {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsString(t *testing.T) {
	c, _, _ := newTestCache()
	c.Access(0, 8, false)
	s := c.Stats()
	if s.MissRatio() != 1 {
		t.Fatalf("MissRatio = %v", s.MissRatio())
	}
	if s.String() == "" {
		t.Fatal("empty Stats.String()")
	}
	var empty Stats
	if empty.MissRatio() != 0 {
		t.Fatal("empty MissRatio should be 0")
	}
}

func TestNonPowerOfTwoGeometryPanics(t *testing.T) {
	for name, set := range map[string]func(*sim.Params){
		"line":  func(p *sim.Params) { p.L3Line = 48 },
		"page":  func(p *sim.Params) { p.PageSize = 6 << 10 },
		"sets":  func(p *sim.Params) { p.L2Assoc = 4 }, // 96 KB / (64 B * 4) = 384 sets
		"l1set": func(p *sim.Params) { p.L1Size = 12 << 10 },
	} {
		t.Run(name, func(t *testing.T) {
			p := sim.Default()
			set(&p)
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted a geometry that is not a power of two")
				}
			}()
			New(&p, &sim.Clock{})
		})
	}
}
