package selection

import (
	"slices"
	"testing"

	"srlb/internal/rng"
)

// FuzzRandomModel holds Random to the naive scheme it stands for: a copy
// of the servers whose first k slots a partial Fisher–Yates shuffle
// reorders on every Pick, drawing from a second stream with the same
// seed. Each Pick must hand out the model's shuffled prefix, also after
// the caller reordered an earlier result (an odd op byte reverses it, as
// WeightedLeastLoad's re-ranking may), and the server list the scheme
// was given must stay as it was.
func FuzzRandomModel(f *testing.F) {
	f.Add(uint64(1), uint8(11), uint8(1), []byte{0, 1, 2, 3})
	f.Add(uint64(7), uint8(1), uint8(1), []byte{1, 1, 1})
	f.Add(uint64(42), uint8(39), uint8(2), []byte{9, 8, 7, 6, 5, 4})
	f.Add(uint64(3), uint8(0), uint8(0), []byte{0})
	f.Fuzz(func(t *testing.T, seed uint64, n, k uint8, ops []byte) {
		size := int(n)%48 + 1
		picks := int(k)%min(size, 4) + 1
		srv := servers(size)
		s := NewRandom(srv, picks, rng.New(seed))
		model, r := slices.Clone(srv), rng.New(seed)
		fl := flow(0)
		for i, op := range ops {
			for j := range picks {
				m := j + r.IntN(size-j)
				model[j], model[m] = model[m], model[j]
			}
			got := s.Pick(fl)
			if !slices.Equal(got, model[:picks]) {
				t.Fatalf("pick %d (n=%d, k=%d): %v, want %v", i, size, picks, got, model[:picks])
			}
			if op&1 == 1 {
				slices.Reverse(got)
			}
		}
		if !slices.Equal(srv, servers(size)) {
			t.Fatalf("Random wrote the server list it was given: %v", srv)
		}
	})
}
