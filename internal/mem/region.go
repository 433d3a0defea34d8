// Package mem provides the simulated physical address space shared by the
// transaction engines and the replication machinery: named regions with
// real byte backing (dense or sparse), and an instrumented Accessor that
// charges every load/store/copy/compare to the owning stream's simulated
// clock and cache model, and doubles writes to write-through regions into
// the SAN (paper Section 3: "double writes are used to propagate writes to
// the backup").
package mem

import (
	"fmt"
	"sort"
)

// Backing is the real storage behind a region. Implementations must treat
// out-of-range accesses as programmer errors (panic), mirroring a wild
// pointer on the modelled hardware.
type Backing interface {
	ReadAt(off int, dst []byte)
	WriteAt(off int, src []byte)
	Size() int
}

// Dense is a flat in-memory backing.
type Dense []byte

// NewDense allocates a zeroed dense backing of n bytes.
func NewDense(n int) Dense { return make(Dense, n) }

// ReadAt copies len(dst) bytes at off into dst.
func (d Dense) ReadAt(off int, dst []byte) { copy(dst, d[off:off+len(dst)]) }

// WriteAt copies src into the backing at off.
func (d Dense) WriteAt(off int, src []byte) { copy(d[off:off+len(src)], src) }

// Size returns the backing size in bytes.
func (d Dense) Size() int { return len(d) }

// sparsePage is the allocation granule of a Sparse backing.
const sparsePage = 4096

// Sparse is a page-on-demand backing for very large regions (the 1 GB
// database of paper Table 8): unwritten pages read as zero and occupy no
// host memory.
type Sparse struct {
	size  int
	pages map[int][]byte
}

// NewSparse returns a sparse backing of logical size n bytes.
func NewSparse(n int) *Sparse {
	return &Sparse{size: n, pages: make(map[int][]byte)}
}

// ReadAt copies len(dst) bytes at off into dst; holes read as zero.
func (s *Sparse) ReadAt(off int, dst []byte) {
	if off < 0 || off+len(dst) > s.size {
		panic(fmt.Sprintf("mem: sparse read [%d,%d) out of range %d", off, off+len(dst), s.size))
	}
	for len(dst) > 0 {
		pg, po := off/sparsePage, off%sparsePage
		n := sparsePage - po
		if n > len(dst) {
			n = len(dst)
		}
		if p, ok := s.pages[pg]; ok {
			copy(dst[:n], p[po:po+n])
		} else {
			clearBytes(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// WriteAt copies src into the backing at off, allocating pages on demand.
func (s *Sparse) WriteAt(off int, src []byte) {
	if off < 0 || off+len(src) > s.size {
		panic(fmt.Sprintf("mem: sparse write [%d,%d) out of range %d", off, off+len(src), s.size))
	}
	for len(src) > 0 {
		pg, po := off/sparsePage, off%sparsePage
		n := sparsePage - po
		if n > len(src) {
			n = len(src)
		}
		p, ok := s.pages[pg]
		if !ok {
			p = make([]byte, sparsePage)
			s.pages[pg] = p
		}
		copy(p[po:po+n], src[:n])
		src = src[n:]
		off += n
	}
}

// Size returns the logical size in bytes.
func (s *Sparse) Size() int { return s.size }

// Pages returns the number of host pages actually allocated.
func (s *Sparse) Pages() int { return len(s.pages) }

func clearBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}

// Region is a named, contiguous range of the simulated address space.
type Region struct {
	// Name identifies the region ("db", "mirror", "undolog", ...).
	Name string
	// Base is the region's simulated base address. Regions are placed at
	// cache-size-aligned bases so that, e.g., database and mirror lines
	// conflict in the direct-mapped board cache exactly as two 50 MB
	// structures would on the real machine.
	Base uint64
	// WriteThrough marks the region as mapped into Memory Channel space:
	// every store is doubled onto the SAN.
	WriteThrough bool
	// IOOnly marks a region that exists only in I/O space on this node
	// (the active backup's redo ring as seen by the primary): stores are
	// not applied locally and the backing may be nil.
	IOOnly bool
	// Dirty, when non-nil, records every write to the region at page
	// granularity so a re-enrolling replica can ship only the pages that
	// changed while it was away (see DirtyLog).
	Dirty *DirtyLog

	backing Backing
	// size caches backing.Size(), and dense is the backing itself when it
	// is Dense (nil otherwise): every charged access resolves its region
	// and moves bytes through it, so the common dense case skips the
	// interface dispatch entirely.
	size  int
	dense Dense
}

// NewRegion returns a region with the given backing.
func NewRegion(name string, base uint64, b Backing) *Region {
	r := &Region{Name: name, Base: base, backing: b}
	if b != nil {
		r.size = b.Size()
	}
	if d, ok := b.(Dense); ok {
		r.dense = d
	}
	return r
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return r.size }

// End returns the first simulated address past the region.
func (r *Region) End() uint64 { return r.Base + uint64(r.size) }

// Contains reports whether [addr, addr+n) lies inside the region.
func (r *Region) Contains(addr uint64, n int) bool {
	return addr >= r.Base && addr+uint64(n) <= r.End()
}

// ReadRaw reads bytes without charging simulated time (initialization,
// oracle checks, recovery-side inspection).
func (r *Region) ReadRaw(off int, dst []byte) {
	if r.dense != nil {
		copy(dst, r.dense[off:off+len(dst)])
		return
	}
	r.backing.ReadAt(off, dst)
}

// WriteRaw writes bytes without charging simulated time. Every mutation —
// charged accessor stores, replication deliveries, recovery rewrites —
// lands here, so this is the one choke point where dirty tracking sees the
// whole write stream.
func (r *Region) WriteRaw(off int, src []byte) {
	if r.Dirty != nil {
		r.Dirty.Mark(off, len(src))
	}
	if r.dense != nil {
		copy(r.dense[off:off+len(src)], src)
		return
	}
	r.backing.WriteAt(off, src)
}

// Backing exposes the raw backing (used by the replication layer to apply
// delivered packets on the remote node).
func (r *Region) Backing() Backing { return r.backing }

// Space is one node's simulated address space: a set of non-overlapping
// regions, looked up by address or name.
type Space struct {
	regions []*Region // sorted by Base
	byName  map[string]*Region
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{byName: make(map[string]*Region)}
}

// Add inserts a region, rejecting overlaps and duplicate names.
func (s *Space) Add(r *Region) error {
	if _, dup := s.byName[r.Name]; dup {
		return fmt.Errorf("mem: duplicate region %q", r.Name)
	}
	for _, o := range s.regions {
		if r.Base < o.End() && o.Base < r.End() {
			return fmt.Errorf("mem: region %q [%#x,%#x) overlaps %q [%#x,%#x)",
				r.Name, r.Base, r.End(), o.Name, o.Base, o.End())
		}
	}
	s.regions = append(s.regions, r)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	s.byName[r.Name] = r
	return nil
}

// Lookup returns the region containing [addr, addr+n), or nil. It runs on
// every charged access, so the binary search is written out inline over
// the cached region bounds instead of going through sort.Search's
// closure.
func (s *Space) Lookup(addr uint64, n int) *Region {
	lo, hi := 0, len(s.regions)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.regions[m].End() > addr {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo < len(s.regions) && s.regions[lo].Contains(addr, n) {
		return s.regions[lo]
	}
	return nil
}

// ByName returns the named region, or nil.
func (s *Space) ByName(name string) *Region { return s.byName[name] }

// Regions returns the regions in address order (shared slice; callers must
// not modify it).
func (s *Space) Regions() []*Region { return s.regions }
