package flowtable

import (
	"math"
	"testing"
	"time"

	"srlb/internal/packet"
)

// entries returns every entry's state by key, expired ones included.
func entries(tb *Table) map[packet.FlowKey]FlowBinding {
	out := map[packet.FlowKey]FlowBinding{}
	for id := tb.ents[0].next; id != 0 && len(out) <= tb.n; id = tb.ents[id].next {
		b := tb.binding(&tb.ents[id])
		out[b.Key] = b
	}
	return out
}

// checkTable verifies the structural invariants every public operation
// must preserve: the index and the LRU list hold exactly the same
// entries, every entry is found under its own key, the index is at most
// half full, capacity is respected, every arena id is live or on the
// free list (never both), the side list indexes exactly the entries
// marked as on it, and in-order deadlines never decrease from the LRU
// tail to the head nor pass the table's latest.
func checkTable(t *testing.T, tb *Table) {
	t.Helper()
	state := make([]byte, len(tb.ents)) // 1 live, 2 free
	n := 0
	for id := tb.ents[0].next; id != 0; id = tb.ents[id].next {
		if n++; n > tb.n {
			t.Fatalf("LRU list longer than the %d live entries", tb.n)
		}
		e := &tb.ents[id]
		if tb.ents[e.next].prev != id || tb.ents[e.prev].next != id {
			t.Fatal("LRU links inconsistent")
		}
		k := tb.binding(e).Key
		if got, h := tb.find(&k); got != id || h != e.hash {
			t.Fatalf("entry %d (%v) found as %d", id, k, got)
		}
		state[id] = 1
	}
	if n != tb.n {
		t.Fatalf("LRU list has %d entries, table counts %d", n, tb.n)
	}
	if tb.n > tb.cfg.MaxEntries {
		t.Fatalf("table over capacity: %d > %d", tb.n, tb.cfg.MaxEntries)
	}
	indexed := 0
	for _, s := range tb.index {
		if s.ID == 0 {
			continue
		}
		indexed++
		if state[s.ID] != 1 || tb.ents[s.ID].hash != s.Hash {
			t.Fatalf("index slot %+v does not name a live entry with its hash", s)
		}
	}
	if indexed != tb.n || 2*tb.n > len(tb.index) {
		t.Fatalf("index holds %d of %d entries in %d slots", indexed, tb.n, len(tb.index))
	}
	for id := tb.free; id != 0; id = tb.ents[id].next {
		if state[id] != 0 {
			t.Fatalf("id %d on the free list twice or also live", id)
		}
		state[id] = 2
	}
	for id := 1; id < len(state); id++ {
		if state[id] == 0 {
			t.Fatalf("arena id %d is neither live nor free", id)
		}
	}

	sides := 0
	floor := time.Duration(math.MinInt64) // the last in-order deadline, tail to head
	for id := tb.ents[0].prev; id != 0; id = tb.ents[id].prev {
		e := &tb.ents[id]
		switch {
		case e.side != 0:
			sides++
			if int(e.side) > len(tb.side) || tb.side[e.side-1] != id {
				t.Fatal("side entry not at its side-list index")
			}
			if e.deadline >= tb.latest {
				t.Fatal("side entry's deadline not before the table's latest")
			}
		case e.deadline > tb.latest:
			t.Fatal("in-order deadline after the table's latest")
		case e.deadline < floor:
			t.Fatal("in-order deadlines decrease toward the LRU head")
		default:
			floor = e.deadline
		}
	}
	if sides != len(tb.side) {
		t.Fatalf("%d entries marked side, side list holds %d", sides, len(tb.side))
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	src := New(Config{})
	for i := 0; i < 5; i++ {
		src.Insert(time.Duration(i)*time.Second, key(i), backend1)
	}
	src.MarkClosing(5*time.Second, key(2)) // linger deadline: 7s

	snap := src.Snapshot(5 * time.Second)
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d bindings, want 5", len(snap))
	}
	if src.Len() != 5 {
		t.Fatal("Snapshot mutated the source table")
	}

	dst := New(Config{MaxEntries: 5})
	if n := dst.Restore(5*time.Second, snap); n != 5 {
		t.Fatalf("restored %d bindings, want 5", n)
	}
	checkTable(t, dst)
	for i := 0; i < 5; i++ {
		got, ok := dst.Lookup(5*time.Second, key(i))
		if !ok || got != backend1 {
			t.Fatalf("key %d after restore: %v, %v", i, got, ok)
		}
	}
	// Closing state transferred: entry 2 dies at its linger deadline,
	// not at the idle TTL.
	if _, ok := dst.Lookup(20*time.Second, key(2)); ok {
		t.Fatal("closing mark lost in transfer")
	}
}

// Restore replays the snapshot in the donor's LRU order, so the
// receiver inherits the donor's eviction order too.
func TestRestorePreservesLRUOrder(t *testing.T) {
	src := New(Config{})
	for i := 0; i < 3; i++ {
		src.Insert(0, key(i), backend1)
	}
	src.Lookup(time.Second, key(0)) // key(1) is now the donor's LRU

	dst := New(Config{MaxEntries: 3})
	dst.Restore(time.Second, src.Snapshot(time.Second))
	dst.Insert(2*time.Second, key(9), backend2) // evicts the inherited LRU
	if _, ok := dst.Lookup(2*time.Second, key(1)); ok {
		t.Fatal("donor's LRU entry survived the eviction")
	}
	for _, k := range []int{0, 2, 9} {
		if _, ok := dst.Lookup(2*time.Second, key(k)); !ok {
			t.Fatalf("key %d wrongly evicted", k)
		}
	}
}

func TestSnapshotSkipsExpired(t *testing.T) {
	src := New(Config{})
	src.Insert(0, key(1), backend1)         // dead at IdleTTL
	src.Insert(IdleTTL/2, key(2), backend1) // dead at 3·IdleTTL/2
	snap := src.Snapshot(IdleTTL + IdleTTL/5)
	if len(snap) != 1 || snap[0].Key != key(2) {
		t.Fatalf("snapshot = %+v, want only key(2)", snap)
	}
	// Snapshot is side-effect-free: the expired entry is still the
	// sweeper's to collect.
	if src.Len() != 2 {
		t.Fatalf("len = %d after snapshot, want 2", src.Len())
	}
}

// A snapshot ages while its owner is down: bindings whose deadline
// passed during the downtime must not come back.
func TestRestoreDropsExpired(t *testing.T) {
	up, down := IdleTTL*4/5, IdleTTL*3/2
	src := New(Config{})
	src.Insert(0, key(1), backend1)  // deadline IdleTTL
	src.Insert(up, key(2), backend1) // deadline up + IdleTTL
	snap := src.Snapshot(up)
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d bindings, want 2", len(snap))
	}

	dst := New(Config{})
	if n := dst.Restore(down, snap); n != 1 {
		t.Fatalf("restored %d bindings, want 1", n)
	}
	if _, ok := dst.Lookup(down, key(1)); ok {
		t.Fatal("restore resurrected an expired flow")
	}
	if _, ok := dst.Lookup(down, key(2)); !ok {
		t.Fatal("still-live binding dropped")
	}
}

func TestRestoreNeverOverwritesNewerLocal(t *testing.T) {
	mid := IdleTTL / 2
	donor := New(Config{})
	donor.Insert(0, key(1), backend2)   // deadline IdleTTL
	donor.Insert(mid, key(2), backend2) // deadline mid + IdleTTL
	donor.Insert(mid, key(3), backend2) // deadline mid + IdleTTL
	snap := donor.Snapshot(mid)

	local := New(Config{})
	local.Insert(mid, key(1), backend1) // deadline mid + IdleTTL: newer than donor's
	local.Insert(0, key(2), backend1)   // deadline IdleTTL: older than donor's
	local.Insert(mid, key(3), backend1)
	local.MarkClosing(mid, key(3)) // teardown seen locally

	if n := local.Restore(mid+time.Second, snap); n != 1 {
		t.Fatalf("restore applied %d bindings, want 1 (only the older local)", n)
	}
	if got, _ := local.Lookup(mid+time.Second, key(1)); got != backend1 {
		t.Fatal("restore overwrote a newer local entry")
	}
	if got, _ := local.Lookup(mid+time.Second, key(2)); got != backend2 {
		t.Fatal("older local entry not refreshed from the snapshot")
	}
	// The closing entry keeps its mark and its linger deadline
	// (mid + FinLinger).
	if _, ok := local.Lookup(mid+2*FinLinger, key(3)); ok {
		t.Fatal("restore resurrected a locally-closing flow")
	}
}

// A local entry past its deadline is absent to Restore as to Lookup: a
// closing one must not block a live import, and an idle one is replaced
// as a new entry (an expiry and an insert), not overwritten in place.
func TestRestoreReplacesExpiredLocal(t *testing.T) {
	local := New(Config{})
	local.Insert(0, key(1), backend1)
	local.MarkClosing(0, key(1))      // deadline FinLinger
	local.Insert(0, key(2), backend1) // deadline IdleTTL
	now := IdleTTL + 5*time.Second
	live := []FlowBinding{
		{Key: key(1), Backend: backend2, Deadline: now + IdleTTL, Seen: now},
		{Key: key(2), Backend: backend2, Deadline: now + IdleTTL, Seen: now},
	}
	if n := local.Restore(now, live); n != 2 {
		t.Fatalf("restore applied %d bindings, want 2", n)
	}
	checkTable(t, local)
	for _, k := range []int{1, 2} {
		if got, ok := local.Lookup(now, key(k)); !ok || got != backend2 {
			t.Fatalf("key %d: lookup = %v, %v after restoring a live binding", k, got, ok)
		}
	}
	if st := local.Stats(); st.Expiries != 2 || st.Inserts != 4 {
		t.Fatalf("stats = %+v, want 2 expiries and 4 inserts", st)
	}
}

func TestRestoreRespectsCapacity(t *testing.T) {
	src := New(Config{})
	for i := 0; i < 5; i++ {
		src.Insert(time.Duration(i)*time.Second, key(i), backend1)
	}
	snap := src.Snapshot(5 * time.Second)

	dst := New(Config{MaxEntries: 3})
	dst.Restore(5*time.Second, snap)
	checkTable(t, dst)
	if dst.Len() != 3 {
		t.Fatalf("len = %d, want the capacity bound 3", dst.Len())
	}
	if dst.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", dst.Stats().Evictions)
	}
	// The donor's three most-recent bindings survive.
	for _, k := range []int{2, 3, 4} {
		if _, ok := dst.Lookup(5*time.Second, key(k)); !ok {
			t.Fatalf("key %d missing; capacity eviction dropped the wrong end", k)
		}
	}
}
