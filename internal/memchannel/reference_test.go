package memchannel

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// refNode is a per-byte reference model of Node's write-buffer pipeline:
// every buffer keeps one valid flag and one category per byte, and every
// loop walks the 32 bytes one at a time. It is deliberately the slow,
// obvious formulation; Node's per-category masks must be
// indistinguishable from it in everything observable — delivered remote
// bytes, per-category SAN bytes, pending buffers, link statistics and
// the charged clock.
type refNode struct {
	params *sim.Params
	clock  *sim.Clock
	link   *sim.Link
	dsts   []*mem.Region // every receiver of the single window at 0

	bufs       []refBuf
	crashed    bool
	idleDrain  bool
	crashAfter int64
	emitted    int64
	catBytes   [mem.NumCategories]int64
}

type refBuf struct {
	block    uint64
	openedAt sim.Time
	data     [blockSize]byte
	valid    [blockSize]bool
	cat      [blockSize]mem.Category
}

func (b *refBuf) size() int {
	n := 0
	for _, v := range b.valid {
		if v {
			n++
		}
	}
	return n
}

func (r *refNode) StoreIO(addr uint64, src []byte, cat mem.Category) {
	if r.crashed {
		return
	}
	r.drainStale()
	for i, c := range src {
		a := addr + uint64(i)
		block := a &^ (blockSize - 1)
		idx := -1
		for j := range r.bufs {
			if r.bufs[j].block == block {
				idx = j
			}
		}
		if idx < 0 {
			if len(r.bufs) >= r.params.WriteBuffers {
				r.emit(0, true)
			}
			r.bufs = append(r.bufs, refBuf{block: block, openedAt: r.clock.Now()})
			idx = len(r.bufs) - 1
		}
		b := &r.bufs[idx]
		off := int(a - block)
		b.data[off], b.valid[off], b.cat[off] = c, true, cat
		// A buffer fills at the end of the within-block store that
		// completes it, so the store's bytes up to the block end must be
		// merged before the fill check.
		last := i == len(src)-1 || (a+1)&(blockSize-1) == 0
		if last && b.size() == blockSize {
			r.emitBuf(b, false)
			r.bufs = append(r.bufs[:idx], r.bufs[idx+1:]...)
		}
	}
}

func (r *refNode) emit(i int, sync bool) {
	b := r.bufs[i]
	r.bufs = append(r.bufs[:i], r.bufs[i+1:]...)
	r.emitBuf(&b, sync)
}

func (r *refNode) emitBuf(b *refBuf, sync bool) {
	size := b.size()
	if size == 0 {
		return
	}
	if r.crashAfter > 0 && r.emitted >= r.crashAfter {
		r.crashed = true
	}
	if r.crashed {
		return
	}
	r.emitted++
	for sent := 0; sent < size; {
		part := min(size-sent, r.params.MaxPacket)
		readyAt, _ := r.link.Submit(r.clock.Now(), part, sync)
		r.clock.AdvanceTo(readyAt)
		if part < blockSize && !r.idleDrain {
			r.clock.Advance(sim.Dur(part) * r.params.PartialDrainPerByte)
		}
		sent += part
	}
	for i := 0; i < blockSize; i++ {
		if !b.valid[i] {
			continue
		}
		for _, d := range r.dsts {
			d.WriteRaw(int(b.block)+i, b.data[i:i+1])
		}
		r.catBytes[b.cat[i]]++
	}
}

func (r *refNode) Fence() {
	for len(r.bufs) > 0 {
		r.emit(0, false)
	}
}

func (r *refNode) drainStale() {
	if r.params.DrainAge <= 0 {
		return
	}
	cutoff := r.clock.Now() - sim.Time(r.params.DrainAge)
	for len(r.bufs) > 0 && r.bufs[0].openedAt <= cutoff {
		r.emit(0, false)
	}
}

func (r *refNode) Crash() {
	r.drainStale()
	r.bufs = nil
	r.crashed = true
}

func (r *refNode) Idle(d sim.Dur) {
	r.clock.Advance(d)
	r.idleDrain = true
	for len(r.bufs) > 0 {
		r.emit(0, false)
	}
	r.idleDrain = false
}

func (r *refNode) CrashAfterPackets(k int64) {
	r.emitted = 0
	r.crashAfter = k
}

// TestWriteBuffersMatchReference drives Node and the per-byte reference
// through identical randomized sequences — stores within and across
// blocks, overwrites under a new category, fences, drain-age and
// buffer-pressure evictions, idle drains, injected and explicit crashes —
// and requires every observable to agree after every step.
func TestWriteBuffersMatchReference(t *testing.T) {
	const window = 512 // 16 blocks against 6 buffers: constant pressure
	stock := sim.Default()
	small := sim.Default()
	small.WriteBuffers = 2
	small.MaxPacket = 8 // an ablation SAN: buffers leave as several packets
	for _, pc := range []struct {
		name string
		p    sim.Params
	}{{"stock", stock}, {"small", small}} {
		for seed := uint64(1); seed <= 40; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pc.name, seed), func(t *testing.T) {
				p := pc.p
				clk, refClk := &sim.Clock{}, &sim.Clock{}
				n := NewNode(&p, clk, sim.NewLink(&p))
				ref := &refNode{params: &p, clock: refClk, link: sim.NewLink(&p)}
				var got, want []*mem.Region
				for i := 0; i < 2; i++ {
					got = append(got, mem.NewRegion("got", 0, mem.NewDense(window)))
					want = append(want, mem.NewRegion("want", 0, mem.NewDense(window)))
				}
				if err := n.Map(Mapping{SrcBase: 0, Size: window, Dst: got[0],
					Fanout: []Target{{Dst: got[1]}}}); err != nil {
					t.Fatal(err)
				}
				ref.dsts = want

				r := rand.New(rand.NewPCG(seed, 12))
				var log []string
				for step := 0; step < 400; step++ {
					var op string
					switch k := r.IntN(100); {
					case k < 70:
						ln := 1 + r.IntN(40)
						if r.IntN(4) == 0 {
							ln = 1 + r.IntN(4) // small overwrites inside a block
						}
						off := r.IntN(window - ln + 1)
						src := make([]byte, ln)
						for i := range src {
							src[i] = byte(r.Uint32())
						}
						cat := mem.Category(1 + r.IntN(int(mem.NumCategories)-1))
						op = fmt.Sprintf("store %d+%d %v", off, ln, cat)
						n.StoreIO(uint64(off), src, cat)
						ref.StoreIO(uint64(off), src, cat)
					case k < 78:
						d := sim.Dur(r.IntN(1500)) * sim.Nanosecond
						op = fmt.Sprintf("advance %v", d)
						clk.Advance(d)
						refClk.Advance(d)
					case k < 85:
						op = "fence"
						n.Fence()
						ref.Fence()
					case k < 90:
						d := sim.Dur(r.IntN(500)) * sim.Nanosecond
						op = fmt.Sprintf("idle %v", d)
						n.Idle(d)
						ref.Idle(d)
					case k < 96:
						c := int64(r.IntN(12))
						op = fmt.Sprintf("crash-after %d", c)
						n.CrashAfterPackets(c)
						ref.CrashAfterPackets(c)
					case k < 98:
						op = "reset-stats"
						n.ResetStats()
						ref.catBytes = [mem.NumCategories]int64{}
					default:
						op = "crash"
						n.Crash()
						ref.Crash()
					}
					log = append(log, op)
					if err := compareToReference(n, ref, got, want); err != nil {
						t.Fatalf("after step %d (%s): %v\nsequence: %v", step, op, err, log)
					}
				}
			})
		}
	}
}

func compareToReference(n *Node, ref *refNode, got, want []*mem.Region) error {
	for i := range got {
		g := make([]byte, got[i].Size())
		w := make([]byte, want[i].Size())
		got[i].ReadRaw(0, g)
		want[i].ReadRaw(0, w)
		if !bytes.Equal(g, w) {
			return fmt.Errorf("receiver %d bytes differ from the reference", i)
		}
	}
	cats := n.CategoryBytes()
	for c := mem.CatModified; c <= mem.CatControl; c++ {
		if cats[c] != ref.catBytes[c] {
			return fmt.Errorf("CategoryBytes[%v] = %d, reference %d", c, cats[c], ref.catBytes[c])
		}
	}
	if n.PendingBufs() != len(ref.bufs) {
		return fmt.Errorf("PendingBufs = %d, reference %d", n.PendingBufs(), len(ref.bufs))
	}
	if n.clock.Now() != ref.clock.Now() {
		return fmt.Errorf("clock = %v, reference %v", n.clock.Now(), ref.clock.Now())
	}
	if n.Crashed() != ref.crashed {
		return fmt.Errorf("Crashed = %v, reference %v", n.Crashed(), ref.crashed)
	}
	if gs, ws := n.link.Stats(), ref.link.Stats(); !reflect.DeepEqual(gs, ws) {
		return fmt.Errorf("link stats %+v, reference %+v", gs, ws)
	}
	return nil
}
