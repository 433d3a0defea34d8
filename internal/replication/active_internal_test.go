package replication

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/vista"
)

// TestApplyRecordOverrunPanics: a redo record whose entries run past its
// own size field is corrupt, and applying it must panic before the
// overrunning entry reaches the backup's database — whether the overrun
// is in an entry's header or in its payload.
func TestApplyRecordOverrunPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int // the record's declared size
	}{
		// The first entry spans [8, 22), the second [22, 36).
		{"payload", 32}, // the second entry's header fits, its payload does not
		{"header", 24},  // the second entry's header is cut short
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := NewGroup(Config{
				Mode:    Active,
				Store:   vista.Config{Version: vista.V3InlineLog, DBSize: 1 << 20},
				Backups: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			b := g.backups[0]
			// Two entries: 8 bytes at db offset 0, then 8 bytes at 64.
			rec := make([]byte, 64)
			binary.LittleEndian.PutUint32(rec[0:], 2)
			binary.LittleEndian.PutUint32(rec[4:], uint32(tc.size))
			pos := 8
			for _, off := range []uint32{0, 64} {
				binary.LittleEndian.PutUint32(rec[pos:], off)
				binary.LittleEndian.PutUint16(rec[pos+4:], 8)
				for i := 0; i < 8; i++ {
					rec[pos+6+i] = 0xAB
				}
				pos += 6 + 8
			}
			b.bRing.WriteRaw(0, rec)

			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("overrunning redo record applied without a panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, "overruns its size") {
					t.Fatalf("panic %v, want the overrun message", r)
				}
				// The in-bounds first entry was applied; the
				// overrunning second one never reached the database.
				db := b.node.Space.ByName(vista.RegionDB)
				got := make([]byte, 8)
				if db.ReadRaw(0, got); got[0] != 0xAB {
					t.Fatalf("in-bounds first entry not applied: %x", got)
				}
				if db.ReadRaw(64, got); got[0] != 0 {
					t.Fatalf("overrunning entry written before the panic: %x", got)
				}
			}()
			g.redo.applyRecord(b, 0, 2, tc.size)
		})
	}
}
