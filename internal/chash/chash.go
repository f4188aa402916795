// Package chash provides consistent hashing: a Maglev-style lookup table
// (Eisenbud et al., NSDI'16 — reference [3] of the paper).
//
// SRLB §II-B lists consistent hashing as one of the candidate-selection
// schemes for the SR segment list, and the related-work discussion notes
// Maglev/Ananta use it for flow affinity across load-balancer instances.
// This package backs the selection.ConsistentHash scheme and the flow-miss
// fallback in the load balancer.
package chash

import (
	"fmt"
	"hash/fnv"
)

// Hash64 hashes a string key with FNV-1a (stdlib, stable across runs).
func Hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// hashWithSalt mixes an integer salt into a key hash.
func hashWithSalt(key string, salt uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(salt >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	return h.Sum64()
}

// Maglev is the Maglev consistent-hashing lookup table: every backend
// fills table slots following its own permutation, giving near-perfect
// balance and minimal disruption on membership change.
type Maglev struct {
	table    []int // slot -> backend index
	backends []string
	m        uint64
}

// DefaultTableSize is a prime ≫ max backends, per the Maglev paper's
// guidance (table size ≥ 100× backends for <1% imbalance).
const DefaultTableSize = 65537

// NewMaglev builds a lookup table of the given size (must be > 0; a prime
// is strongly recommended and enforced for sizes > 3 by rounding up to the
// next odd non-trivially-composite value is NOT done — callers pass a
// prime, e.g. DefaultTableSize). backends must be non-empty and unique.
func NewMaglev(backends []string, tableSize int) (*Maglev, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("chash: no backends")
	}
	if tableSize <= 0 {
		tableSize = DefaultTableSize
	}
	if tableSize < len(backends) {
		return nil, fmt.Errorf("chash: table size %d smaller than backend count %d", tableSize, len(backends))
	}
	seen := make(map[string]bool, len(backends))
	for _, b := range backends {
		if seen[b] {
			return nil, fmt.Errorf("chash: duplicate backend %q", b)
		}
		seen[b] = true
	}
	m := &Maglev{
		backends: append([]string(nil), backends...),
		m:        uint64(tableSize),
	}
	m.populate()
	return m, nil
}

// populate implements the Maglev population algorithm (NSDI'16 §3.4).
func (m *Maglev) populate() {
	n := len(m.backends)
	M := m.m
	offsets := make([]uint64, n)
	skips := make([]uint64, n)
	for i, b := range m.backends {
		offsets[i] = hashWithSalt(b, 0xdead) % M
		skips[i] = hashWithSalt(b, 0xbeef)%(M-1) + 1
	}
	table := make([]int, M)
	for i := range table {
		table[i] = -1
	}
	next := make([]uint64, n)
	var filled uint64
	for filled < M {
		for i := 0; i < n && filled < M; i++ {
			c := (offsets[i] + next[i]*skips[i]) % M
			for table[c] >= 0 {
				next[i]++
				c = (offsets[i] + next[i]*skips[i]) % M
			}
			table[c] = i
			next[i]++
			filled++
		}
	}
	m.table = table
}

// Lookup returns the backend for a flow key.
func (m *Maglev) Lookup(key string) string {
	return m.backends[m.table[Hash64(key)%m.m]]
}

// Lookup2 returns two distinct backends for a key — the primary and the
// next distinct entry in the table — supporting two-candidate Service
// Hunting with consistent (rather than random) selection. With one
// backend, both returns are that backend.
func (m *Maglev) Lookup2(key string) (string, string) {
	h := Hash64(key)
	slot := h % m.m
	first := m.table[slot]
	if len(m.backends) == 1 {
		return m.backends[first], m.backends[first]
	}
	for i := uint64(1); i < m.m; i++ {
		cand := m.table[(slot+i)%m.m]
		if cand != first {
			return m.backends[first], m.backends[cand]
		}
	}
	return m.backends[first], m.backends[first]
}
