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
// per-packet cost is one probe regardless of service count.
//
// The per-flow storage holds no Go pointers, like a data plane's
// preallocated buffers, so the GC never scans it. Entries live in an
// arena slice addressed by int32 ids, one 64-byte line each: the source
// address and ports, the destination and backend as ids in the table's
// append-only addrtab.Table (the topology bounds both; a source other
// than a zoneless IPv6 one, whose 16 bytes would alias, is interned too),
// the times, the key's hash and int32 LRU links. Entry 0 is the LRU
// sentinel; removed ids go on a free list, so a long run's steady state
// allocates nothing. The index is an addrtab.Index: a linearly probed
// array of (hash, id) slots, at most half full, with backward-shift
// deletion.
// A hit reads one index line, one entry line and its LRU neighbours. The
// hash mixes the key's words under a per-table random seed, and no output
// depends on it: the index is probed for one key at a time, never
// iterated, and grows by entry count alone.
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
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"time"

	"srlb/internal/addrtab"
	"srlb/internal/packet"
)

// IdleTTL expires entries untouched for this long; FinLinger holds a
// closing flow's entry, so retransmitted FIN/ACKs still steer correctly.
const IdleTTL, FinLinger = 60 * time.Second, 2 * time.Second

// Config tunes the table. Zero fields take defaults.
type Config struct {
	// MaxEntries bounds the table; inserting beyond it evicts the least
	// recently used entry (default 1 << 20, at most 1 << 30).
	MaxEntries int
}

func (c Config) withDefaults() Config {
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 20
	}
	c.MaxEntries = min(c.MaxEntries, 1<<30)
	return c
}

// entry is one flow: 64 bytes, no Go pointers.
type entry struct {
	src              [16]byte      // the source's bytes, or its intern id if interned
	deadline         time.Duration // absolute expiry
	seen             time.Duration // last packet time (idle-gap queries)
	srcPort, dstPort uint16
	dst, backend     int32  // intern ids (Table.addrs)
	hash             uint32 // the key's hash: where the index slot is
	// LRU links by id, circular through entry 0: head side = most
	// recently used. A free entry's next links the free list.
	prev, next int32
	side       int32 // 1-based index in Table.side; 0 = in order
	interned   bool  // src holds an intern id
	closing    bool
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
	cfg    Config
	index  addrtab.Index // by entry id; the sentinel's id 0 marks an empty cell
	ents   []entry       // the arena; ents[0] is the LRU sentinel
	free   int32         // first free id; 0 = none
	n      int           // live entries
	seed   uint64
	stats  Stats
	latest time.Duration  // the latest deadline an in-order entry was fronted with
	side   []int32        // the out-of-order entries (package comment)
	addrs  *addrtab.Table // interned addresses
}

// New creates a table.
func New(cfg Config) *Table {
	return &Table{
		cfg: cfg.withDefaults(), index: make(addrtab.Index, 8), ents: make([]entry, 1, 8),
		seed: rand.Uint64(), addrs: addrtab.New(0),
	}
}

// Len returns the number of live entries (including not-yet-expired ones).
func (t *Table) Len() int { return t.n }

// Stats returns a copy of the table counters.
func (t *Table) Stats() Stats { return t.stats }

// find returns key's entry id, 0 if it is absent, and the key's hash.
func (t *Table) find(k *packet.FlowKey) (int32, uint32) {
	h := addrtab.HashFlow(k, t.seed)
	mask := uint32(len(t.index) - 1)
	for i := h & mask; t.index[i].ID != 0; i = (i + 1) & mask {
		if s := t.index[i]; s.Hash == h {
			if e := &t.ents[s.ID]; e.srcPort == k.SrcPort && e.dstPort == k.DstPort &&
				t.srcAddr(e) == k.Src && t.addrs.Addr(e.dst) == k.Dst {
				return s.ID, h
			}
		}
	}
	return 0, h
}

func (t *Table) srcAddr(e *entry) netip.Addr {
	if e.interned {
		return t.addrs.Addr(int32(binary.LittleEndian.Uint32(e.src[:4])))
	}
	return netip.AddrFrom16(e.src)
}

// pushFront links id at the MRU end.
func (t *Table) pushFront(id int32) {
	head := t.ents[0].next
	t.ents[id].prev, t.ents[id].next = 0, head
	t.ents[head].prev = id
	t.ents[0].next = id
}

// unlink removes id from the LRU list.
func (t *Table) unlink(id int32) {
	e := &t.ents[id]
	t.ents[e.prev].next = e.next
	t.ents[e.next].prev = e.prev
}

// front moves id, already linked, to the MRU end and files it in order
// or, in refile's rare case, on the side list.
func (t *Table) front(id int32) {
	t.unlink(id)
	t.pushFront(id)
	if e := &t.ents[id]; e.deadline >= t.latest && e.side == 0 {
		t.latest = e.deadline
	} else {
		t.refile(id)
	}
}

// refile is the filing's rare case: a side entry whose deadline is the
// latest yet returns to order, and an entry with an earlier one joins the
// side list. Every side entry's deadline is before latest.
func (t *Table) refile(id int32) {
	e := &t.ents[id]
	if e.deadline >= t.latest {
		t.latest = e.deadline
		t.unside(e)
	} else if e.side == 0 {
		t.side = append(t.side, id)
		e.side = int32(len(t.side))
	}
}

// unside moves the last side entry into e's slot.
func (t *Table) unside(e *entry) {
	last := len(t.side) - 1
	moved := t.side[last]
	t.side[e.side-1] = moved
	t.ents[moved].side = e.side
	t.side = t.side[:last]
	e.side = 0
}

// set gives entry id b's state and fronts it.
func (t *Table) set(id int32, b *FlowBinding) {
	e := &t.ents[id]
	e.backend, e.deadline, e.seen, e.closing = t.addrs.Add(b.Backend), b.Deadline, b.Seen, b.Closing
	t.front(id)
}

// Insert binds key to backend at time now, refreshing the TTL if the key
// exists. Inserting may evict the LRU entry when the table is full.
func (t *Table) Insert(now time.Duration, key packet.FlowKey, backend netip.Addr) {
	b := FlowBinding{Backend: backend, Deadline: now + IdleTTL, Seen: now}
	if id, h := t.find(&key); id != 0 {
		t.set(id, &b)
	} else {
		t.add(&key, h, &b)
	}
}

// add inserts key, absent from the table, with hash h and b's state,
// evicting the LRU entry when the table is full.
func (t *Table) add(k *packet.FlowKey, h uint32, b *FlowBinding) {
	if t.n >= t.cfg.MaxEntries {
		t.remove(t.ents[0].prev)
		t.stats.Evictions++
	}
	t.n++
	id := t.free
	if id != 0 {
		t.free = t.ents[id].next
	} else {
		if len(t.ents) == cap(t.ents) {
			grown := make([]entry, len(t.ents), min(2*cap(t.ents), t.cfg.MaxEntries+1))
			copy(grown, t.ents)
			t.ents = grown
		}
		id = int32(len(t.ents))
		t.ents = t.ents[:id+1]
	}
	// The entry starts as a list of its own, which set's front unlinks.
	t.ents[id] = entry{src: k.Src.As16(), srcPort: k.SrcPort, dstPort: k.DstPort, dst: t.addrs.Add(k.Dst), hash: h, prev: id, next: id}
	if !k.Src.Is6() || k.Src.Zone() != "" {
		t.ents[id].interned = true
		binary.LittleEndian.PutUint32(t.ents[id].src[:4], uint32(t.addrs.Add(k.Src)))
	}
	t.index = t.index.Add(addrtab.Slot{Hash: h, ID: id}, t.n)
	t.set(id, b)
	t.stats.Inserts++
}

// Lookup returns the backend bound to key, refreshing its TTL. Expired
// entries are removed and reported as misses.
func (t *Table) Lookup(now time.Duration, key packet.FlowKey) (netip.Addr, bool) {
	b, _, ok := t.LookupIdle(now, key)
	return b, ok
}

// LookupIdle is Lookup plus the flow's idle gap: how long since the
// entry last saw a packet, measured before this one refreshes it — the
// flowlet-boundary signal. Semantics otherwise match Lookup (TTL
// refresh, LRU touch, expiry-as-miss).
func (t *Table) LookupIdle(now time.Duration, key packet.FlowKey) (backend netip.Addr, idle time.Duration, ok bool) {
	id := t.live(now, &key)
	if id == 0 {
		t.stats.Misses++
		return netip.Addr{}, 0, false
	}
	e := &t.ents[id]
	idle = now - e.seen
	if !e.closing {
		e.deadline = now + IdleTTL
	}
	e.seen = now
	t.front(id)
	t.stats.Hits++
	return t.addrs.Addr(e.backend), idle, true
}

// live returns key's entry id, or 0 if it is absent. An entry past its
// deadline is removed, counted as an expiry and reported absent.
func (t *Table) live(now time.Duration, key *packet.FlowKey) int32 {
	id, _ := t.find(key)
	if id != 0 && now > t.ents[id].deadline {
		t.remove(id)
		t.stats.Expiries++
		return 0
	}
	return id
}

// Rebind moves an existing flow to a new backend — the mid-connection
// candidate rewrite behind flowlet re-steering. Unlike Insert it
// touches nothing else: closing state and the deadline are preserved
// (the triggering packet's LookupIdle already refreshed them), and a
// missing key is a no-op returning false. An expired entry is treated
// exactly as Lookup treats it — removed, counted as an expiry, and
// reported missing — so a dead flow can never be re-steered.
func (t *Table) Rebind(now time.Duration, key packet.FlowKey, backend netip.Addr) bool {
	id := t.live(now, &key)
	if id == 0 {
		return false
	}
	t.ents[id].backend = t.addrs.Add(backend)
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
	id := t.live(now, &key)
	if id == 0 || t.ents[id].closing {
		return false
	}
	e := &t.ents[id]
	e.closing = true
	if d := now + FinLinger; d < e.deadline {
		e.deadline = d
		t.refile(id) // d is before latest, so the entry joins the side list
	}
	return true
}

// Sweep removes all entries expired at time now and returns how many were
// collected. Call periodically (the LB does) to bound memory between
// lookups. It walks from the LRU tail up to the first live in-order entry,
// then scans the side list (package comment).
func (t *Table) Sweep(now time.Duration) int {
	removed := 0
	for id := t.ents[0].prev; id != 0 && (t.ents[id].side != 0 || now > t.ents[id].deadline); {
		prev := t.ents[id].prev
		if t.ents[id].side == 0 {
			t.remove(id)
			removed++
		}
		id = prev
	}
	// Backwards, so the entry removal swaps into slot i is one already seen.
	for i := len(t.side) - 1; i >= 0; i-- {
		if id := t.side[i]; now > t.ents[id].deadline {
			t.remove(id)
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

// binding returns entry e's state.
func (t *Table) binding(e *entry) FlowBinding {
	return FlowBinding{
		Key:     packet.FlowKey{Src: t.srcAddr(e), Dst: t.addrs.Addr(e.dst), SrcPort: e.srcPort, DstPort: e.dstPort},
		Backend: t.addrs.Addr(e.backend), Deadline: e.deadline, Seen: e.seen, Closing: e.closing,
	}
}

// Snapshot exports every live binding at time now, ordered least- to
// most-recently used, so that a Restore replaying the slice in order
// reproduces the donor's LRU order. Entries already expired are skipped
// (but left for Lookup/Sweep to collect — Snapshot has no side
// effects).
func (t *Table) Snapshot(now time.Duration) []FlowBinding {
	out := make([]FlowBinding, 0, t.n)
	for id := t.ents[0].prev; id != 0; id = t.ents[id].prev {
		if e := &t.ents[id]; now <= e.deadline {
			out = append(out, t.binding(e))
		}
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
	for i := range bindings {
		b := &bindings[i]
		if now > b.Deadline {
			continue
		}
		if id := t.live(now, &b.Key); id == 0 {
			t.add(&b.Key, addrtab.HashFlow(&b.Key, t.seed), b)
		} else if e := &t.ents[id]; e.closing || e.deadline >= b.Deadline {
			continue
		} else {
			t.set(id, b)
		}
		applied++
	}
	return applied
}

// remove unlinks entry id, empties its index slot and frees the id.
func (t *Table) remove(id int32) {
	e := &t.ents[id]
	if e.side != 0 {
		t.unside(e)
	}
	t.unlink(id)
	t.index.Delete(e.hash, id)
	*e = entry{next: t.free}
	t.free = id
	t.n--
}
