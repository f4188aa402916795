package agent

import "testing"

// dynamicModel is Algorithm 2 at the paper's constants, written as the
// window it describes: c starts at 1, every decision since the last
// adaptation is kept, and on every window-th call the accepted share of
// the window is compared with the band [0.4, 0.6] in exact integer
// arithmetic before that call decides. The call that adapts counts in
// the next window, so the first window holds window − 1 decisions
// divided by window, and every later one holds window.
type dynamicModel struct {
	window, calls, c int
	decisions        []bool
}

func (m *dynamicModel) accept(busy, total int) bool {
	m.calls++
	if m.calls%m.window == 0 {
		accepted := 0
		for _, d := range m.decisions {
			if d {
				accepted++
			}
		}
		// accepted/window < 2/5 raises c (up to total); > 3/5 lowers it.
		switch {
		case 5*accepted < 2*m.window && m.c < total:
			m.c++
		case 5*accepted > 3*m.window && m.c > 0:
			m.c--
		}
		m.decisions = m.decisions[:0]
	}
	d := busy < m.c
	m.decisions = append(m.decisions, d)
	return d
}

// FuzzDynamicModel holds SRdyn to dynamicModel: every Accept and the
// threshold C after it. Input: the first byte picks the window (1–64,
// or the default 50 when it is 0); every decision after it is two
// bytes, the scoreboard's total workers (1–32) and its busy count (0 to
// total).
func FuzzDynamicModel(f *testing.F) {
	// One window of refusals, then one of acceptances, at window 4.
	f.Add([]byte{4, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 7, 0, 7, 0, 7, 0, 7, 0})
	// The default window, alternating accept and refuse: the ratio sits
	// inside the band.
	alternating := []byte{0}
	for i := range 300 {
		alternating = append(alternating, 31, byte(31*(i%2)))
	}
	f.Add(alternating)
	// Window 1: every call adapts on the previous call's decision alone.
	f.Add([]byte{1, 3, 3, 3, 3, 3, 0, 3, 0, 3, 3, 0, 0, 0, 0})
	// A one-worker server: c is capped at 1.
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := int(data[0] % 65)
		p := NewDynamic(window)
		if window == 0 {
			window = 50
		}
		m := &dynamicModel{window: window, c: 1}
		if p.C() != m.c {
			t.Fatalf("initial c = %d, want %d", p.C(), m.c)
		}
		data = data[1:]
		for i := 0; len(data) >= 2; i, data = i+1, data[2:] {
			total := int(data[0]%32) + 1
			busy := int(data[1]) % (total + 1)
			got := p.Accept(&fakeBoard{busy: busy, total: total})
			want := m.accept(busy, total)
			if got != want || p.C() != m.c {
				t.Fatalf("window %d, call %d (busy %d of %d): Accept = %v, c = %d; model %v, c = %d",
					window, i+1, busy, total, got, p.C(), want, m.c)
			}
		}
	})
}
