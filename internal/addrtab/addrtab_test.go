package addrtab

import (
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"

	"srlb/internal/packet"
)

// fuzzAddr decodes one address from b: its first byte picks the form,
// the next bytes the value, so short inputs revisit the same few
// addresses and each IPv6 address meets its IPv4, mapped and zoned
// look-alikes.
func fuzzAddr(b []byte) (netip.Addr, []byte) {
	if len(b) < 2 {
		return netip.Addr{}, nil
	}
	form, v := b[0], b[1]
	b = b[2:]
	var a16 [16]byte
	a16[15] = v
	switch form % 6 {
	case 0:
		return netip.Addr{}, b
	case 1: // IPv4
		return netip.AddrFrom4([4]byte{0, 0, 0, v}), b
	case 2: // IPv4-mapped: the IPv4 address's As16 bytes
		a16[10], a16[11] = 0xff, 0xff
		return netip.AddrFrom16(a16), b
	case 3: // zoned, two zones
		return netip.AddrFrom16(a16).WithZone([]string{"eth0", "eth1"}[form/6%2]), b
	case 4: // a documentation address, as the testbed's
		a16[0], a16[1], a16[2], a16[3] = 0x20, 0x01, 0x0d, 0xb8
		a16[14] = form
		return netip.AddrFrom16(a16), b
	}
	return netip.AddrFrom16(a16), b // "::<v>", which As16 shares with the zoned forms
}

// FuzzAddrTable drives a Table and a map[netip.Addr]int32 with the same
// adds and lookups: ids are dense in first-add order, a repeated add
// keeps the first id, and lookups agree, on IPv4, IPv4-mapped, zoned,
// zero and IPv6 addresses whose As16 bytes collide.
func FuzzAddrTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 7, 2, 7, 3, 7, 9, 7, 5, 7, 1, 7, 0, 0})
	f.Add([]byte{4, 1, 10, 1, 16, 1, 4, 2, 128, 3, 3, 3, 2, 9, 1, 9})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := New(len(data) % 5)
		model := map[netip.Addr]int32{}
		var order []netip.Addr
		for len(data) > 0 {
			add := data[0]&0x80 != 0
			var a netip.Addr
			a, data = fuzzAddr(data)
			if add {
				want, ok := model[a]
				if !ok {
					want = int32(len(order))
					model[a] = want
					order = append(order, a)
				}
				if got := tab.Add(a); got != want {
					t.Fatalf("Add(%v) = %d, want %d", a, got, want)
				}
			}
			got, ok := tab.Lookup(a)
			if want, wantOK := model[a]; ok != wantOK || (ok && got != want) {
				t.Fatalf("Lookup(%v) = %d, %v; want %d, %v", a, got, ok, want, wantOK)
			}
		}
		if tab.Len() != len(order) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(order))
		}
		for id, a := range order {
			if got := tab.Addr(int32(id)); got != a {
				t.Fatalf("Addr(%d) = %v, want %v", id, got, a)
			}
		}
		filled := 0
		for _, s := range tab.index {
			if s.ID != 0 {
				filled++
			}
		}
		if filled != len(order) || 2*filled > len(tab.index) {
			t.Fatalf("index holds %d of %d addresses in %d cells", filled, len(order), len(tab.index))
		}
	})
}

// FuzzFlowIndexModel drives a FlowIndex and a map[packet.FlowKey]int32
// with the same Adds, Finds and Deletes, ids taken as an owner takes
// them: a freed one first, else NewID, each numbering itself. Sources that differ only in their
// zone hash alike, so their keys collide in full. The first input byte
// picks keys over four sources, two VIPs and four ports, or over the
// three zone forms and four ports chosen to home in the index's top
// cell, so runs wrap and deletes shift slots back across the wrap. After
// every op Find, Filed, Key, Object, AppendFiled and Len agree with the
// model.
func FuzzFlowIndexModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 0x41, 0x42, 0x80, 0x83, 8, 9})
	f.Add([]byte{1, 0, 4, 8, 12, 16, 20, 0x44, 0x50, 24, 28, 0x40, 0x80, 0x84, 32})
	f.Add([]byte{1, 1, 5, 9, 13, 17, 21, 25, 29, 0x45, 0x49, 0x4d, 33, 37, 0x51, 0x55, 0x59})
	srcs := []netip.Addr{
		netip.MustParseAddr("fe80::1"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("fe80::1%eth1"),
		netip.MustParseAddr("2001:db8:c::1"),
	}
	vips := []netip.Addr{netip.MustParseAddr("2001:db8:f00d::1"), netip.MustParseAddr("2001:db8:f00d::2")}
	ports := []uint16{1024, 1025, 1026, 1027}
	var top []uint16 // home in the last cell of an index of up to 32
	for p := uint16(1024); len(top) < 4; p++ {
		if k := (packet.FlowKey{Src: srcs[0], Dst: vips[0], SrcPort: p, DstPort: 80}); HashFlow(&k, 0)&31 == 31 {
			top = append(top, p)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		wrap := data[0]&1 != 0
		x := NewFlowIndex[int32]()
		model := map[packet.FlowKey]int32{}
		var keys []packet.FlowKey // by id, the last key filed
		var free []int32
		for _, b := range data[1:] {
			// Bit 7 picks Add or Delete (a no-op on a key in the other
			// state); bits 2-6 pick the key.
			v := int(b >> 2 & 0x1f)
			k := packet.FlowKey{Src: srcs[v%4], Dst: vips[v/4%2], SrcPort: ports[v/8%4], DstPort: 80}
			if wrap {
				k = packet.FlowKey{Src: srcs[v%3], Dst: vips[0], SrcPort: top[v/3%4], DstPort: 80}
			}
			id, filed := model[k]
			switch {
			case b&0x80 == 0 && !filed:
				if n := len(free); n > 0 {
					id, free = free[n-1], free[:n-1]
				} else if id = x.NewID(int32(len(keys))); id != int32(len(keys)) {
					t.Fatalf("NewID = %d, want %d", id, len(keys))
				} else {
					keys = append(keys, packet.FlowKey{})
				}
				x.Add(id, &k)
				model[k], keys[id] = id, k
			case b&0x80 != 0 && filed:
				x.Delete(id)
				delete(model, k)
				free = append(free, id)
			}
			if want, ok := model[k]; !ok && x.Find(&k) != -1 || ok && x.Find(&k) != want {
				t.Fatalf("Find(%v) = %d, model %v", k, x.Find(&k), model)
			}
			if x.Len() != len(model) || 2*x.Len() > len(x.index) {
				t.Fatalf("Len = %d in %d cells, model holds %d", x.Len(), len(x.index), len(model))
			}
			var filedIDs []int32
			for id, key := range keys {
				owner, ok := model[key]
				filed := ok && owner == int32(id)
				if x.Key(int32(id)) != key || x.Filed(int32(id)) != filed || x.Object(int32(id)) != int32(id) {
					t.Fatalf("id %d: Key %v, want %v; Filed = %v, want %v; Object %d", id, x.Key(int32(id)), key, x.Filed(int32(id)), filed, x.Object(int32(id)))
				}
				if filed {
					filedIDs = append(filedIDs, int32(id))
				}
			}
			if got := x.AppendFiled(nil); !slices.Equal(got, filedIDs) {
				t.Fatalf("AppendFiled = %v, want %v", got, filedIDs)
			}
		}
	})
}

// Deleting from an Index keeps every remaining key on its probe run,
// whichever key of a colliding run goes.
func TestIndexDeleteKeepsRuns(t *testing.T) {
	for del := int32(1); del <= 6; del++ {
		x := make(Index, 16)
		hashes := []uint32{15, 15, 0, 15, 2, 14} // runs that wrap the 16 cells
		for i, h := range hashes {
			if x = x.Add(Slot{Hash: h, ID: int32(i + 1)}, i+1); len(x) != 16 {
				t.Fatal("the index grew")
			}
		}
		x.Delete(hashes[del-1], del)
		for i, h := range hashes {
			id := int32(i + 1)
			found := false
			mask := uint32(len(x) - 1)
			for j := h & mask; x[j].ID != 0; j = (j + 1) & mask {
				found = found || x[j].ID == id
			}
			if found == (id == del) {
				t.Fatalf("after deleting %d: id %d found = %v", del, id, found)
			}
		}
	}
}

// A table of the rigs' shape, thousands of consecutive addresses, keeps
// its probe runs short: the hash spreads the low bytes the addresses
// differ in.
func TestSequentialAddressesProbeShort(t *testing.T) {
	base := netip.MustParseAddr("2001:db8:f00d::").As16()
	tab := New(0)
	for v := 0; v < 10000; v++ {
		a := base
		a[14], a[15] = byte(v>>8), byte(v)
		tab.Add(netip.AddrFrom16(a))
	}
	mask := uint32(len(tab.index) - 1)
	total := 0
	for id := range tab.addrs {
		h := hash(tab.addrs[id])
		probes := 1
		for i := h & mask; tab.index[i].ID != int32(id+1); i = (i + 1) & mask {
			probes++
		}
		total += probes
	}
	if mean := float64(total) / float64(len(tab.addrs)); mean > 2 {
		t.Fatalf("mean probe length %.2f over %d addresses, want ≤ 2", mean, len(tab.addrs))
	}
}

// The words the hash reads are the address's As16 words: IPv4, mapped,
// zoned and zero addresses read as their 16 bytes, so a change to
// netip.Addr's layout shows here before it degrades the probe runs.
func TestWordsAreAs16(t *testing.T) {
	for _, s := range []string{"::", "0.0.0.0", "192.0.2.7", "::ffff:192.0.2.7", "fe80::1%eth0", "2001:db8:f00d::1:2"} {
		a := netip.MustParseAddr(s)
		b := a.As16()
		if w := Words(&a); w[0] != binary.BigEndian.Uint64(b[:8]) || w[1] != binary.BigEndian.Uint64(b[8:]) {
			t.Fatalf("%v: words %#x, As16 %x", a, *w, b)
		}
	}
	var zero netip.Addr
	if w := Words(&zero); w[0] != 0 || w[1] != 0 {
		t.Fatalf("zero Addr: words %#x", *w)
	}
}

// BenchmarkLookup times a hit in a table of the rigs' shape against the
// Go map it replaced.
func BenchmarkLookup(b *testing.B) {
	base := netip.MustParseAddr("2001:db8:f00d::").As16()
	addrs := make([]netip.Addr, 10000)
	tab, m := New(len(addrs)), make(map[netip.Addr]int32, len(addrs))
	for v := range addrs {
		a := base
		a[14], a[15] = byte(v>>8), byte(v)
		addrs[v] = netip.AddrFrom16(a)
		m[addrs[v]] = tab.Add(addrs[v])
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := tab.Lookup(addrs[i%len(addrs)]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := m[addrs[i%len(addrs)]]; !ok {
				b.Fatal("miss")
			}
		}
	})
}
