// Maglev table interning: at control-plane scale thousands of VIPs
// share a handful of server pools, and a Maglev table is a pure
// function of (backends, size) — populating one per VIP turns topology
// construction into O(VIPs × tableSize). SharedMaglev canonicalizes:
// the first request for a backend set pays the populate, every later
// request gets the same immutable table back.
package chash

import (
	"strings"
	"sync"
)

// internCap bounds the cache. A run holds a few distinct pools (the
// testbed's shared-pool topologies) times a few table sizes; 128 is far
// above any realistic working set, and on overflow the whole cache is
// dropped rather than tracking recency — correctness never depends on a
// hit.
const internCap = 128

var (
	internMu    sync.Mutex
	internTable map[string]*Maglev
)

// internKey is the canonical identity of a table: its size and the
// backend list in caller order (Maglev population is order-sensitive
// only through backend hashing, but two differently-ordered declarations
// are treated as distinct — cheaper than sorting and callers are
// deterministic anyway).
func internKey(backends []string, tableSize int) string {
	var sb strings.Builder
	n := len("\x00") * (len(backends) + 1)
	for _, b := range backends {
		n += len(b)
	}
	sb.Grow(n + 20)
	sb.WriteString(itoa(tableSize))
	for _, b := range backends {
		sb.WriteByte(0)
		sb.WriteString(b)
	}
	return sb.String()
}

// itoa avoids pulling strconv into the hot construction path for a
// trivial non-negative conversion.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// SharedMaglev returns the interned Maglev table for (backends,
// tableSize), building and caching it on first use. The returned table
// is shared — it is immutable after construction, so concurrent readers
// (parallel sweep workers building topologies) are safe. Errors are not
// cached.
func SharedMaglev(backends []string, tableSize int) (*Maglev, error) {
	if tableSize <= 0 {
		tableSize = DefaultTableSize
	}
	key := internKey(backends, tableSize)

	internMu.Lock()
	if m, ok := internTable[key]; ok {
		internMu.Unlock()
		return m, nil
	}
	internMu.Unlock()

	// Populate outside the lock: tables are pure functions of the key, so
	// a racing duplicate build wastes work but stays correct (last write
	// wins; both values are interchangeable).
	m, err := NewMaglev(backends, tableSize)
	if err != nil {
		return nil, err
	}

	internMu.Lock()
	if internTable == nil {
		internTable = make(map[string]*Maglev)
	}
	if prior, ok := internTable[key]; ok {
		internMu.Unlock()
		return prior, nil
	}
	if len(internTable) >= internCap {
		internTable = make(map[string]*Maglev)
	}
	internTable[key] = m
	internMu.Unlock()
	return m, nil
}
