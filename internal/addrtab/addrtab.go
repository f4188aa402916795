// Package addrtab maps addresses and flows to dense int32 ids in flat
// arrays, as a data plane keeps forwarding state, not in Go maps hashing
// pointer-carrying keys per lookup. Index, shared with the flow table, is
// a pointer-free, linearly probed array of (hash, id) slots, at most half
// full; its owner's probe loop compares the keys. Table is an append-only
// Index over addresses, ids 0, 1, 2, ... in order of addition; FlowIndex
// files an owner's objects under flow keys. The hashes mix As16()'s words,
// which alias IPv4 with mapped and zoned with zoneless addresses, so keys
// compare by ==.
package addrtab

import (
	"math/bits"
	"net/netip"
	"unsafe"

	"srlb/internal/packet"
)

// Slot is one index cell: a key's hash and its id; ID 0 is an empty cell.
type Slot struct {
	Hash uint32
	ID   int32
}

// Index is a power-of-two array of Slots, at least 8, that a key probes
// from Hash & (len-1) on, wrapping, to an empty cell.
type Index []Slot

// Add places s in its probe run's first empty cell, first doubling x if n
// keys would fill it more than half, and returns the index.
func (x Index) Add(s Slot, n int) Index {
	if 2*n > len(x) {
		grown := make(Index, 2*len(x))
		for _, old := range x {
			if old.ID != 0 {
				grown.Add(old, 0)
			}
		}
		x = grown
	}
	mask := uint32(len(x) - 1)
	i := s.Hash & mask
	for x[i].ID != 0 {
		i = (i + 1) & mask
	}
	x[i] = s
	return x
}

// Delete empties id's cell (hash h); a later slot of the run moves into
// the hole unless its home lies cyclically in (hole, i].
func (x Index) Delete(h uint32, id int32) {
	mask := uint32(len(x) - 1)
	hole := h & mask
	for x[hole].ID != id {
		hole = (hole + 1) & mask
	}
	for i := (hole + 1) & mask; x[i].ID != 0; i = (i + 1) & mask {
		if (i-x[i].Hash)&mask >= (i-hole)&mask {
			x[hole] = x[i]
			hole = i
		}
	}
	x[hole] = Slot{}
}

// Table maps addresses to dense ids; readers may share one nobody adds to.
type Table struct {
	index Index        // slot ID = address id + 1
	addrs []netip.Addr // by id
}

// New returns a table with room for n addresses before it grows.
func New(n int) *Table {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return &Table{index: make(Index, size), addrs: make([]netip.Addr, 0, n)}
}

// Words reads the two words of As16 where netip.Addr stores them; As16's
// byte-swapped copy stalls a hash (≈ 15 ns against ≈ 2.5 ns). Equal
// addresses are equal in every byte, so a hash is consistent whatever
// the layout; TestWordsAreAs16 pins that the words are the address.
func Words(a *netip.Addr) *[2]uint64 { return (*[2]uint64)(unsafe.Pointer(a)) }

func hash(a netip.Addr) uint32 {
	w := Words(&a)
	hi, lo := bits.Mul64(w[0]^0x9e3779b97f4a7c15, w[1]^0xbf58476d1ce4e5b9)
	return uint32(hi ^ lo)
}

// Lookup returns a's id and whether a is in the table.
func (t *Table) Lookup(a netip.Addr) (int32, bool) {
	h := hash(a)
	mask := uint32(len(t.index) - 1)
	for i := h & mask; t.index[i].ID != 0; i = (i + 1) & mask {
		if s := t.index[i]; s.Hash == h && t.addrs[s.ID-1] == a {
			return s.ID - 1, true
		}
	}
	return -1, false
}

// Add returns a's id, giving a the next id if it is new.
func (t *Table) Add(a netip.Addr) int32 {
	if id, ok := t.Lookup(a); ok {
		return id
	}
	t.addrs = append(t.addrs, a)
	t.index = t.index.Add(Slot{Hash: hash(a), ID: int32(len(t.addrs))}, len(t.addrs))
	return int32(len(t.addrs) - 1)
}

// Len returns the number of addresses in the table.
func (t *Table) Len() int { return len(t.addrs) }

// Addr returns the address with the given id.
func (t *Table) Addr(id int32) netip.Addr { return t.addrs[id] }

// HashFlow mixes a flow key's words under seed.
func HashFlow(k *packet.FlowKey, seed uint64) uint32 {
	s, d := Words(&k.Src), Words(&k.Dst)
	h1, l1 := bits.Mul64(s[0]^seed, s[1]^0x9e3779b97f4a7c15)
	h2, l2 := bits.Mul64(d[0]^uint64(k.SrcPort)<<16^uint64(k.DstPort), d[1]^0xbf58476d1ce4e5b9)
	hi, lo := bits.Mul64(h1^l1^seed, h2^l2)
	return uint32(hi ^ lo)
}

// FlowIndex files an owner's objects under flow keys, at most one per
// key: NewID numbers an object for life, and Add and Delete file and
// unfile it by its id. The index keeps each id's object and the key it
// was last filed under, so the objects need not hold their flows.
type FlowIndex[T any] struct {
	index Index          // slot ID = id + 1
	ids   []flowEntry[T] // by id
	n     int            // filed ids
}

type flowEntry[T any] struct {
	key packet.FlowKey
	obj T
}

// NewFlowIndex returns an empty index.
func NewFlowIndex[T any]() FlowIndex[T] { return FlowIndex[T]{index: make(Index, 8)} }

// NewID numbers obj with the next id, which is not filed.
func (x *FlowIndex[T]) NewID(obj T) int32 {
	x.ids = append(x.ids, flowEntry[T]{obj: obj})
	return int32(len(x.ids) - 1)
}

// Find returns the id filed under k, or -1.
func (x *FlowIndex[T]) Find(k *packet.FlowKey) int32 {
	h := HashFlow(k, 0)
	mask := uint32(len(x.index) - 1)
	for i := h & mask; x.index[i].ID != 0; i = (i + 1) & mask {
		if s := x.index[i]; s.Hash == h && x.ids[s.ID-1].key == *k {
			return s.ID - 1
		}
	}
	return -1
}

// Add files id, which is not filed, under k, which has no id.
func (x *FlowIndex[T]) Add(id int32, k *packet.FlowKey) {
	x.ids[id].key = *k
	x.n++
	x.index = x.index.Add(Slot{Hash: HashFlow(k, 0), ID: id + 1}, x.n)
}

// Delete unfiles id, which is filed.
func (x *FlowIndex[T]) Delete(id int32) {
	x.index.Delete(HashFlow(&x.ids[id].key, 0), id+1)
	x.n--
}

// Filed reports whether id is filed (under Key(id)).
func (x *FlowIndex[T]) Filed(id int32) bool { return x.Find(&x.ids[id].key) == id }

// Key returns the key id is, or was last, filed under.
func (x *FlowIndex[T]) Key(id int32) packet.FlowKey { return x.ids[id].key }

// Object returns the object numbered id.
func (x *FlowIndex[T]) Object(id int32) T { return x.ids[id].obj }

// AppendFiled appends the filed objects to dst in id order.
func (x *FlowIndex[T]) AppendFiled(dst []T) []T {
	for id, e := range x.ids {
		if x.Filed(int32(id)) {
			dst = append(dst, e.obj)
		}
	}
	return dst
}

// Len returns the number of filed ids.
func (x *FlowIndex[T]) Len() int { return x.n }
