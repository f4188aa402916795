// Package flowtable implements the load balancer's per-flow state: the
// mapping from a TCP 4-tuple to the application server that accepted the
// connection during Service Hunting.
//
// The table is bounded (LRU eviction) and entries expire after an idle
// TTL, with a shorter linger after FIN/RST — mirroring how a production
// LB protects itself against state exhaustion. Expiry is driven by the
// caller-provided clock (virtual time in simulations), not wall time.
//
// One table serves every VIP the balancer advertises: FlowKey includes
// the destination address, so entries are keyed by (VIP, flow) and the
// per-packet cost is one map operation regardless of service count. The
// LRU list is intrusive (prev/next links live inside the entry) and
// removed entries recycle through a free list, so the steady state of a
// long run — flows expiring as fast as they are learned — allocates
// nothing.
//
// A sweep costs what expires, not what the table holds. An entry fronted
// with the latest deadline yet is in order, so in-order deadlines never
// decrease from the LRU tail to the head. The rest sit on a side list:
// entries MarkClosing shortened, fronted closing entries, Restore
// bindings older than the latest deadline, entries fronted after the
// clock stepped back. Sweep walks from the tail to the first live
// in-order entry, then scans the side list: O(expired + side entries).
package flowtable

import (
	"net/netip"
	"time"

	"srlb/internal/packet"
)

// Config tunes the table. Zero fields take defaults.
type Config struct {
	// MaxEntries bounds the table; inserting beyond it evicts the least
	// recently used entry (default 1 << 20).
	MaxEntries int
	// IdleTTL expires entries untouched for this long (default 60s).
	IdleTTL time.Duration
	// FinLinger holds an entry after the flow is marked closing, so
	// retransmitted FIN/ACKs still steer correctly (default 2s).
	FinLinger time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 20
	}
	if c.IdleTTL <= 0 {
		c.IdleTTL = 60 * time.Second
	}
	if c.FinLinger <= 0 {
		c.FinLinger = 2 * time.Second
	}
	return c
}

type entry struct {
	key      packet.FlowKey
	backend  netip.Addr
	deadline time.Duration // absolute expiry
	seen     time.Duration // last packet time (idle-gap queries)
	closing  bool
	side     int32 // 1-based index in Table.side; 0 = in order
	// Intrusive LRU links. The list is circular through the table's
	// sentinel: head side = most recently used. A free entry reuses next
	// as the free-list link.
	prev, next *entry
}

// Stats counts table events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Evictions uint64
	Expiries  uint64
	Rebinds   uint64
}

// Table maps flows to backends with TTL + LRU eviction. Not safe for
// concurrent use: the simulator is single-threaded, and the live runtime
// wraps it with its own lock.
type Table struct {
	cfg     Config
	entries map[packet.FlowKey]*entry
	lru     entry  // sentinel: lru.next = MRU, lru.prev = LRU
	free    *entry // recycled entries, linked through next
	stats   Stats
	latest  time.Duration // the latest deadline an in-order entry was fronted with
	side    []*entry      // the out-of-order entries (package comment)
}

// New creates a table.
func New(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		cfg:     cfg,
		entries: make(map[packet.FlowKey]*entry),
	}
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	return t
}

// Len returns the number of live entries (including not-yet-expired ones).
func (t *Table) Len() int { return len(t.entries) }

// Stats returns a copy of the table counters.
func (t *Table) Stats() Stats { return t.stats }

// pushFront links e at the MRU end.
func (t *Table) pushFront(e *entry) {
	e.prev, e.next = &t.lru, t.lru.next
	t.lru.next.prev = e
	t.lru.next = e
}

// unlink removes e from the LRU list.
func (t *Table) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// moveToFront refreshes e's LRU position.
func (t *Table) moveToFront(e *entry) {
	t.unlink(e)
	t.pushFront(e)
}

// file puts e, just fronted, in order or on the side list. Its common
// case, kept out of pushFront, inlines into the lookups.
func (t *Table) file(e *entry) {
	if e.deadline >= t.latest && e.side == 0 {
		t.latest = e.deadline
	} else {
		t.refile(e)
	}
}

// refile is file's rare case: a side entry whose deadline is the latest
// yet returns to order, and an entry with an earlier one joins the side
// list. Every side entry's deadline is before latest.
func (t *Table) refile(e *entry) {
	if e.deadline >= t.latest {
		t.latest = e.deadline
		t.unside(e)
	} else if e.side == 0 {
		t.side = append(t.side, e)
		e.side = int32(len(t.side))
	}
}

// unside moves the last side entry into e's slot.
func (t *Table) unside(e *entry) {
	last := len(t.side) - 1
	moved := t.side[last]
	t.side[e.side-1] = moved
	moved.side = e.side
	t.side[last] = nil
	t.side = t.side[:last]
	e.side = 0
}

// newEntry takes an entry from the free list or allocates one.
func (t *Table) newEntry() *entry {
	if e := t.free; e != nil {
		t.free = e.next
		*e = entry{}
		return e
	}
	return &entry{}
}

// Insert binds key to backend at time now, refreshing the TTL if the key
// exists. Inserting may evict the LRU entry when the table is full.
func (t *Table) Insert(now time.Duration, key packet.FlowKey, backend netip.Addr) {
	if e, ok := t.entries[key]; ok {
		e.backend = backend
		e.deadline = now + t.cfg.IdleTTL
		e.seen = now
		e.closing = false
		t.moveToFront(e)
		t.file(e)
		return
	}
	if len(t.entries) >= t.cfg.MaxEntries {
		t.evictLRU()
	}
	e := t.newEntry()
	e.key = key
	e.backend = backend
	e.deadline = now + t.cfg.IdleTTL
	e.seen = now
	t.pushFront(e)
	t.file(e)
	t.entries[key] = e
	t.stats.Inserts++
}

// Lookup returns the backend bound to key, refreshing its TTL. Expired
// entries are removed and reported as misses.
func (t *Table) Lookup(now time.Duration, key packet.FlowKey) (netip.Addr, bool) {
	e, ok := t.entries[key]
	if !ok {
		t.stats.Misses++
		return netip.Addr{}, false
	}
	if now > e.deadline {
		t.removeEntry(e)
		t.stats.Expiries++
		t.stats.Misses++
		return netip.Addr{}, false
	}
	if !e.closing {
		e.deadline = now + t.cfg.IdleTTL
	}
	e.seen = now
	t.moveToFront(e)
	t.file(e)
	t.stats.Hits++
	return e.backend, true
}

// LookupIdle is Lookup plus the flow's idle gap: how long since the
// entry last saw a packet, measured before this one refreshes it — the
// flowlet-boundary signal. Semantics otherwise match Lookup (TTL
// refresh, LRU touch, expiry-as-miss).
func (t *Table) LookupIdle(now time.Duration, key packet.FlowKey) (backend netip.Addr, idle time.Duration, ok bool) {
	e, found := t.entries[key]
	if !found {
		t.stats.Misses++
		return netip.Addr{}, 0, false
	}
	if now > e.deadline {
		t.removeEntry(e)
		t.stats.Expiries++
		t.stats.Misses++
		return netip.Addr{}, 0, false
	}
	idle = now - e.seen
	if !e.closing {
		e.deadline = now + t.cfg.IdleTTL
	}
	e.seen = now
	t.moveToFront(e)
	t.file(e)
	t.stats.Hits++
	return e.backend, idle, true
}

// Rebind moves an existing flow to a new backend — the mid-connection
// candidate rewrite behind flowlet re-steering. Unlike Insert it
// touches nothing else: closing state and the deadline are preserved
// (the triggering packet's LookupIdle already refreshed them), and a
// missing key is a no-op returning false. An expired entry is treated
// exactly as Lookup treats it — removed, counted as an expiry, and
// reported missing — so a dead flow can never be re-steered.
func (t *Table) Rebind(now time.Duration, key packet.FlowKey, backend netip.Addr) bool {
	e, ok := t.entries[key]
	if !ok {
		return false
	}
	if now > e.deadline {
		t.removeEntry(e)
		t.stats.Expiries++
		return false
	}
	e.backend = backend
	t.stats.Rebinds++
	return true
}

// MarkClosing shortens the entry's remaining lifetime to FinLinger —
// called when the LB observes FIN or RST on the flow. It reports
// whether this call newly marked the entry (false for retransmitted
// FINs and unknown flows), so the caller can run exactly-once teardown
// bookkeeping. An entry already past its deadline is removed and
// reported missing, matching Lookup — the flow's state is gone, so
// there is no teardown left to account for.
func (t *Table) MarkClosing(now time.Duration, key packet.FlowKey) bool {
	e, ok := t.entries[key]
	if !ok {
		return false
	}
	if now > e.deadline {
		t.removeEntry(e)
		t.stats.Expiries++
		return false
	}
	if e.closing {
		return false
	}
	e.closing = true
	if d := now + t.cfg.FinLinger; d < e.deadline {
		e.deadline = d
		t.refile(e) // d is before latest, so e joins the side list
	}
	return true
}

// Delete removes the entry immediately.
func (t *Table) Delete(key packet.FlowKey) {
	if e, ok := t.entries[key]; ok {
		t.removeEntry(e)
	}
}

// Sweep removes all entries expired at time now and returns how many were
// collected. Call periodically (the LB does) to bound memory between
// lookups. It walks from the LRU tail up to the first live in-order entry,
// then scans the side list (package comment).
func (t *Table) Sweep(now time.Duration) int {
	removed := 0
	for e := t.lru.prev; e != &t.lru && (e.side != 0 || now > e.deadline); {
		prev := e.prev
		if e.side == 0 {
			t.removeEntry(e)
			removed++
		}
		e = prev
	}
	// Backwards, so the entry removal swaps into slot i is one already seen.
	for i := len(t.side) - 1; i >= 0; i-- {
		if e := t.side[i]; now > e.deadline {
			t.removeEntry(e)
			removed++
		}
	}
	t.stats.Expiries += uint64(removed)
	return removed
}

// FlowBinding is one flow's externalized state: everything another
// table needs to reproduce the entry — backend, absolute deadline,
// last-seen time and closing mark. Times are the donor's virtual clock;
// since every replica in a simulation shares that clock, deadlines
// transfer unchanged and entries that expired while a snapshot sat idle
// are dropped on Restore.
type FlowBinding struct {
	Key      packet.FlowKey
	Backend  netip.Addr
	Deadline time.Duration
	Seen     time.Duration
	Closing  bool
}

// Snapshot exports every live binding at time now, ordered least- to
// most-recently used, so that a Restore replaying the slice in order
// reproduces the donor's LRU order. Entries already expired are skipped
// (but left for Lookup/Sweep to collect — Snapshot has no side
// effects).
func (t *Table) Snapshot(now time.Duration) []FlowBinding {
	out := make([]FlowBinding, 0, len(t.entries))
	for e := t.lru.prev; e != &t.lru; e = e.prev {
		if now > e.deadline {
			continue
		}
		out = append(out, FlowBinding{
			Key: e.key, Backend: e.backend,
			Deadline: e.deadline, Seen: e.seen, Closing: e.closing,
		})
	}
	return out
}

// Restore merges a snapshot into the table at time now — the receiving
// half of a warm handoff. Bindings expired by now are dropped (a
// snapshot can never resurrect a dead flow), and the merge never
// overwrites newer local state: a live local entry with a later-or-equal
// deadline, or one already marked closing (teardown knowledge the
// snapshot predates), wins over the imported binding. A local entry
// already past its deadline is absent, as it is to Lookup: it is removed
// (an expiry) and the binding inserted as new. New entries respect the
// capacity bound, evicting LRU like Insert. Returns the number of
// bindings applied.
func (t *Table) Restore(now time.Duration, bindings []FlowBinding) int {
	applied := 0
	for _, b := range bindings {
		if now > b.Deadline {
			continue
		}
		if e, ok := t.entries[b.Key]; ok && now > e.deadline {
			t.removeEntry(e)
			t.stats.Expiries++
		} else if ok {
			if e.closing || e.deadline >= b.Deadline {
				continue
			}
			e.backend = b.Backend
			e.deadline = b.Deadline
			e.seen = b.Seen
			e.closing = b.Closing
			t.moveToFront(e)
			t.file(e)
			applied++
			continue
		}
		if len(t.entries) >= t.cfg.MaxEntries {
			t.evictLRU()
		}
		e := t.newEntry()
		e.key = b.Key
		e.backend = b.Backend
		e.deadline = b.Deadline
		e.seen = b.Seen
		e.closing = b.Closing
		t.pushFront(e)
		t.file(e)
		t.entries[b.Key] = e
		t.stats.Inserts++
		applied++
	}
	return applied
}

func (t *Table) evictLRU() {
	e := t.lru.prev
	if e == &t.lru {
		return
	}
	t.removeEntry(e)
	t.stats.Evictions++
}

func (t *Table) removeEntry(e *entry) {
	if e.side != 0 {
		t.unside(e)
	}
	t.unlink(e)
	delete(t.entries, e.key)
	// Recycle: clear links (and let the key's addrs drop) then push onto
	// the free list through next.
	*e = entry{next: t.free}
	t.free = e
}
