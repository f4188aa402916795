package flowtable

import (
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"srlb/internal/packet"
)

// modelTable is the flow table in its naive form — a map, a touch
// counter for LRU order, and a Sweep that scans every entry — kept as the
// reference Table is driven against.
type modelTable struct {
	cfg     Config
	entries map[packet.FlowKey]*modelEntry
	touches uint64
	stats   Stats
}

type modelEntry struct {
	backend  netip.Addr
	deadline time.Duration
	seen     time.Duration
	closing  bool
	touch    uint64 // higher = more recently put at the LRU front
}

func newModel(cfg Config) *modelTable {
	return &modelTable{cfg: cfg.withDefaults(), entries: map[packet.FlowKey]*modelEntry{}}
}

func (m *modelTable) front(e *modelEntry) {
	m.touches++
	e.touch = m.touches
}

func (m *modelTable) evictLRU() {
	var lru packet.FlowKey
	var oldest *modelEntry
	for k, e := range m.entries {
		if oldest == nil || e.touch < oldest.touch {
			lru, oldest = k, e
		}
	}
	if oldest != nil {
		delete(m.entries, lru)
		m.stats.Evictions++
	}
}

// live returns k's entry, removing it (and counting an expiry) when it is
// past its deadline — how every keyed read treats a dead entry.
func (m *modelTable) live(now time.Duration, k packet.FlowKey) *modelEntry {
	e := m.entries[k]
	if e != nil && now > e.deadline {
		delete(m.entries, k)
		m.stats.Expiries++
		return nil
	}
	return e
}

func (m *modelTable) add(k packet.FlowKey, e *modelEntry) {
	if len(m.entries) >= m.cfg.MaxEntries {
		m.evictLRU()
	}
	m.front(e)
	m.entries[k] = e
	m.stats.Inserts++
}

func (m *modelTable) Insert(now time.Duration, k packet.FlowKey, b netip.Addr) {
	if e := m.entries[k]; e != nil {
		*e = modelEntry{backend: b, deadline: now + IdleTTL, seen: now}
		m.front(e)
		return
	}
	m.add(k, &modelEntry{backend: b, deadline: now + IdleTTL, seen: now})
}

func (m *modelTable) Lookup(now time.Duration, k packet.FlowKey) (netip.Addr, bool) {
	b, _, ok := m.LookupIdle(now, k)
	return b, ok
}

func (m *modelTable) LookupIdle(now time.Duration, k packet.FlowKey) (netip.Addr, time.Duration, bool) {
	if _, ok := m.entries[k]; !ok {
		m.stats.Misses++
		return netip.Addr{}, 0, false
	}
	e := m.live(now, k)
	if e == nil {
		m.stats.Misses++
		return netip.Addr{}, 0, false
	}
	idle := now - e.seen
	if !e.closing {
		e.deadline = now + IdleTTL
	}
	e.seen = now
	m.front(e)
	m.stats.Hits++
	return e.backend, idle, true
}

func (m *modelTable) Rebind(now time.Duration, k packet.FlowKey, b netip.Addr) bool {
	e := m.live(now, k)
	if e == nil {
		return false
	}
	e.backend = b
	m.stats.Rebinds++
	return true
}

func (m *modelTable) MarkClosing(now time.Duration, k packet.FlowKey) bool {
	e := m.live(now, k)
	if e == nil || e.closing {
		return false
	}
	e.closing = true
	e.deadline = min(e.deadline, now+FinLinger)
	return true
}

func (m *modelTable) Delete(k packet.FlowKey) { delete(m.entries, k) }

func (m *modelTable) Sweep(now time.Duration) int {
	removed := 0
	for k, e := range m.entries {
		if now > e.deadline {
			delete(m.entries, k)
			m.stats.Expiries++
			removed++
		}
	}
	return removed
}

func (m *modelTable) Snapshot(now time.Duration) []FlowBinding {
	out := []FlowBinding{}
	order := map[packet.FlowKey]uint64{}
	for k, e := range m.entries {
		if now > e.deadline {
			continue
		}
		out = append(out, FlowBinding{Key: k, Backend: e.backend, Deadline: e.deadline, Seen: e.seen, Closing: e.closing})
		order[k] = e.touch
	}
	sort.Slice(out, func(i, j int) bool { return order[out[i].Key] < order[out[j].Key] })
	return out
}

func (m *modelTable) Restore(now time.Duration, bindings []FlowBinding) int {
	applied := 0
	for _, b := range bindings {
		if now > b.Deadline {
			continue
		}
		fresh := &modelEntry{backend: b.Backend, deadline: b.Deadline, seen: b.Seen, closing: b.Closing}
		if e := m.live(now, b.Key); e != nil {
			if e.closing || e.deadline >= b.Deadline {
				continue
			}
			*e = *fresh
			m.front(e)
			applied++
			continue
		}
		m.add(b.Key, fresh)
		applied++
	}
	return applied
}

// poolVIPs are the destinations of poolKey's flows.
var poolVIPs = func() (v [11]netip.Addr) {
	for i := range v {
		v[i] = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0xf0, 0x0d, 15: byte(i + 1)})
	}
	return v
}()

// poolKey is flow i of the large-table key pool: distinct sources over
// len(poolVIPs) destinations, with a few unusual sources mixed in — an
// IPv4 one and its IPv4-mapped IPv6 twin (same bytes, same ports,
// different addresses), a zoned one, and the zero Addr.
func poolKey(i int) packet.FlowKey {
	k := packet.FlowKey{
		Src:     netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0x0c, 14: byte(i >> 8), 15: byte(i)}),
		Dst:     poolVIPs[i%len(poolVIPs)],
		SrcPort: uint16(40000 + i),
		DstPort: uint16(80 + i%3),
	}
	switch i % 50 {
	case 7:
		k.Src = netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
	case 8:
		prev := poolKey(i - 1)
		k = packet.FlowKey{Src: netip.AddrFrom16(prev.Src.As16()), Dst: prev.Dst, SrcPort: prev.SrcPort, DstPort: prev.DstPort}
	case 19:
		k.Src = k.Src.WithZone("eth0")
	case 31:
		k.Src = netip.Addr{}
	}
	return k
}

// poolBackend is backend i of the large-table mode.
func poolBackend(i int) netip.Addr {
	return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 0x05, 15: byte(i + 1)})
}

// FuzzFlowtableModel drives a Table and the naive modelTable through the
// same op sequence — every keyed operation, Sweep, Snapshot, Restore of an
// earlier snapshot (deadlines shifted either way), and clock steps and
// jumps forward past IdleTTL and FinLinger and back. The first byte picks
// the mode: a table small enough to evict on a pool of 12 keys and 2
// backends, or a large one (up to 299 entries, a pool of 600 keys over
// 11 VIPs and 8 backends, and a bulk insert op) that grows, fills and
// empties again. After every op the op's result, Len, Stats and Snapshot
// must equal the model's, and the table's own structure must hold
// (checkTable).
func FuzzFlowtableModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 1, 1, 2, 5, 3, 11, 1, 7, 2, 1, 5, 2, 11, 0, 7})
	f.Add([]byte{0, 3, 0, 0, 0, 1, 1, 0, 8, 5, 0, 11, 2, 7, 8, 11, 0, 9, 0, 4, 7, 3, 0})
	f.Add([]byte{0, 0, 0, 3, 0, 5, 3, 10, 40, 2, 3, 8, 11, 2, 50, 9, 0, 6, 9, 0, 2, 7, 3, 3})
	f.Add([]byte{0, 5, 0, 1, 0, 0, 2, 0, 1, 3, 0, 8, 5, 1, 11, 0, 9, 0, 8, 0, 0, 1, 9, 1, 3, 7, 2, 1})
	// Sweep a closed flow out past FinLinger, then an idle one past IdleTTL.
	f.Add([]byte{0, 7, 1, 0, 0, 2, 0, 0, 1, 5, 0, 11, 1, 1, 0, 7, 0, 11, 1, 0, 0, 7})
	// Large mode: fill past capacity in bulk, look up, close, snapshot,
	// jump past IdleTTL, sweep empty and refill.
	f.Add([]byte{1, 200, 0, 0, 12, 0, 63, 0, 0, 12, 64, 63, 3, 1, 12, 128, 63, 5, 0, 12, 192, 63, 7, 2, 5, 0, 9, 3, 2, 8, 0,
		5, 5, 0, 3, 3, 11, 0, 0, 7, 12, 50, 63, 1, 12, 150, 63, 4, 8, 0, 9, 0, 4, 2, 7, 9, 0, 9, 0})
	f.Add([]byte{1, 60, 0, 0, 12, 10, 63, 2, 12, 90, 63, 6, 6, 0, 6, 1, 6, 2, 12, 170, 63, 3, 7, 0, 12, 33, 40, 0, 0, 11, 2,
		7, 0, 3, 2, 4, 12, 5, 63, 1, 5, 7, 0, 3, 2, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &ftCursor{data: data}
		large := c.next(2) == 1
		maxEntries, keySpace, nBackends := 1+c.next(8), 12, 2
		if large {
			maxEntries, keySpace, nBackends = 44+c.next(256), 600, 8
		}
		cfg := Config{MaxEntries: maxEntries}
		keys := make([]packet.FlowKey, keySpace)
		backends := make([]netip.Addr, nBackends)
		for i := range keys {
			keys[i] = key(i)
			if large {
				keys[i] = poolKey(i)
			}
		}
		for i := range backends {
			backends[i] = [2]netip.Addr{backend1, backend2}[i%2]
			if large {
				backends[i] = poolBackend(i)
			}
		}
		// pick draws a key: one byte in small mode, two in large.
		pick := func() int {
			if large {
				return (c.next(256)<<8 | c.next(256)) % keySpace
			}
			return c.next(keySpace)
		}
		tb, m := New(cfg), newModel(cfg)
		var now time.Duration
		var snaps [][]FlowBinding
		for op := 0; op < 400 && c.pos < len(data); op++ {
			ki := pick()
			k := keys[ki]
			ops := 12
			if large {
				ops = 13
			}
			switch c.next(ops) {
			case 0, 1:
				b := backends[c.next(nBackends)]
				tb.Insert(now, k, b)
				m.Insert(now, k, b)
			case 2:
				gb, gok := tb.Lookup(now, k)
				wb, wok := m.Lookup(now, k)
				if gb != wb || gok != wok {
					t.Fatalf("op %d: Lookup = %v,%v, model %v,%v", op, gb, gok, wb, wok)
				}
			case 3:
				gb, gi, gok := tb.LookupIdle(now, k)
				wb, wi, wok := m.LookupIdle(now, k)
				if gb != wb || gi != wi || gok != wok {
					t.Fatalf("op %d: LookupIdle = %v,%v,%v, model %v,%v,%v", op, gb, gi, gok, wb, wi, wok)
				}
			case 4:
				b := backends[c.next(nBackends)]
				if got, want := tb.Rebind(now, k, b), m.Rebind(now, k, b); got != want {
					t.Fatalf("op %d: Rebind = %v, model %v", op, got, want)
				}
			case 5:
				if got, want := tb.MarkClosing(now, k), m.MarkClosing(now, k); got != want {
					t.Fatalf("op %d: MarkClosing = %v, model %v", op, got, want)
				}
			case 6:
				tb.deleteKey(k)
				m.Delete(k)
			case 7:
				if got, want := tb.Sweep(now), m.Sweep(now); got != want {
					t.Fatalf("op %d: Sweep removed %d, model %d", op, got, want)
				}
			case 8:
				snaps = append(snaps, tb.Snapshot(now))
			case 9:
				if len(snaps) == 0 {
					break
				}
				shift := time.Duration(c.next(9)-4) * IdleTTL / 10
				snap := slices.Clone(snaps[c.next(len(snaps))])
				for i := range snap {
					snap[i].Deadline += shift
					snap[i].Seen += shift
				}
				if got, want := tb.Restore(now, snap), m.Restore(now, snap); got != want {
					t.Fatalf("op %d: Restore applied %d, model %d", op, got, want)
				}
			case 10: // up to half the idle TTL
				now += time.Duration(c.next(5000)) * (IdleTTL / 10000)
			case 11:
				step := time.Duration(c.next(3000)) * time.Millisecond
				switch c.next(3) {
				case 0:
					now += IdleTTL + step
				case 1:
					now += FinLinger + step
				default:
					now = max(0, now-step-time.Second)
				}
			case 12:
				// Bulk insert: up to 64 consecutive pool keys from k's
				// index, a millisecond apart, backends in turn.
				for i, n := 0, 1+c.next(64); i < n; i++ {
					now += time.Millisecond
					kk, b := keys[(ki+i)%keySpace], backends[i%nBackends]
					tb.Insert(now, kk, b)
					m.Insert(now, kk, b)
				}
			}
			checkTable(t, tb)
			if tb.Len() != len(m.entries) {
				t.Fatalf("op %d: Len = %d, model %d", op, tb.Len(), len(m.entries))
			}
			if tb.Stats() != m.stats {
				t.Fatalf("op %d: Stats = %+v, model %+v", op, tb.Stats(), m.stats)
			}
			if got, want := tb.Snapshot(now), m.Snapshot(now); !slices.Equal(got, want) {
				t.Fatalf("op %d at %v: Snapshot =\n%v\nmodel\n%v", op, now, got, want)
			}
		}
	})
}
