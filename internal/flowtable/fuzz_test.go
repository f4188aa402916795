package flowtable

import (
	"testing"
	"time"

	"srlb/internal/packet"
)

// ftCursor is a bounded-decode cursor over the fuzz input: each call
// consumes one byte and maps it into [0, bound). Out of data = 0, so
// every input decodes to some (possibly trivial) op sequence.
type ftCursor struct {
	data []byte
	pos  int
}

func (c *ftCursor) next(bound int) int {
	if bound <= 0 || c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b) % bound
}

// FuzzFlowtableSnapshot drives a source table through an arbitrary op
// sequence, snapshots it, merges the snapshot into an independently
// mutated destination, and checks the structural and semantic
// invariants: index/LRU/free-list consistency, no expired binding ever
// exported or resurrected, and newer live local state never overwritten.
func FuzzFlowtableSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 8, 0, 1, 2, 0, 1, 4, 2, 1, 3, 9, 0, 2})
	f.Add([]byte{1, 30, 10, 0, 3, 11, 1, 7, 2, 2, 4, 4, 250, 9, 9, 9, 1})
	f.Add([]byte{7, 60, 200, 100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 255, 128, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &ftCursor{data: data}
		cfg := Config{MaxEntries: 1 + c.next(8)}
		const keySpace = 12
		// A step is up to half the idle TTL, so entries expire and
		// lingers end within a drive.
		const tick = IdleTTL / 10000
		drive := func(tb *Table, start time.Duration, ops int) time.Duration {
			now := start
			for i := 0; i < ops; i++ {
				now += time.Duration(c.next(5000)) * tick
				k := key(c.next(keySpace))
				switch c.next(5) {
				case 0, 1:
					b := backend1
					if c.next(2) == 1 {
						b = backend2
					}
					tb.Insert(now, k, b)
				case 2:
					tb.Lookup(now, k)
				case 3:
					tb.MarkClosing(now, k)
				case 4:
					tb.Rebind(now, k, backend2)
				}
			}
			return now
		}

		src := New(cfg)
		now := drive(src, 0, c.next(64))
		checkTable(t, src)

		snap := src.Snapshot(now)
		if len(snap) > src.Len() {
			t.Fatalf("snapshot has %d bindings from a table of %d", len(snap), src.Len())
		}
		seen := map[packet.FlowKey]bool{}
		for _, b := range snap {
			if now > b.Deadline {
				t.Fatal("snapshot exported an expired binding")
			}
			if seen[b.Key] {
				t.Fatal("duplicate key in snapshot")
			}
			seen[b.Key] = true
		}

		// Destination capacity covers every possible key, so the merge
		// checks below can't be confounded by capacity eviction (that
		// path has its own deterministic test).
		dstCfg := cfg
		dstCfg.MaxEntries = 2 * keySpace
		dst := New(dstCfg)
		dnow := drive(dst, now, c.next(32))
		pre := entries(dst)

		restoreNow := dnow + time.Duration(c.next(10000))*tick
		dst.Restore(restoreNow, snap)
		checkTable(t, dst)
		post := entries(dst)
		for _, b := range snap {
			e, ok := post[b.Key]
			if !ok {
				continue // expired by restoreNow, or never present — both legal
			}
			p, had := pre[b.Key]
			// A live binding replaces a local entry dead by restoreNow.
			had = had && (restoreNow <= p.Deadline || restoreNow > b.Deadline)
			switch {
			case had && (p.Closing || p.Deadline >= b.Deadline):
				if e.Backend != p.Backend || e.Deadline != p.Deadline || e.Closing != p.Closing {
					t.Fatal("restore overwrote newer local state")
				}
			case restoreNow > b.Deadline:
				if e.Backend == b.Backend && e.Deadline == b.Deadline {
					t.Fatal("restore resurrected an expired binding")
				}
			case had:
				if e.Backend != b.Backend || e.Deadline != b.Deadline || e.Closing != b.Closing {
					t.Fatal("older local entry not updated to the snapshot's state")
				}
			default:
				if e != b {
					t.Fatal("restored binding mutated in transfer")
				}
			}
		}
	})
}
