package wiki

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"srlb/internal/ipv6"
	"srlb/internal/packet"
)

func dummyFlow() packet.FlowKey {
	return packet.FlowKey{
		Src:     ipv6.MustAddr("2001:db8:c::1"),
		Dst:     ipv6.MustAddr("2001:db8:f00d::1"),
		SrcPort: 40000,
		DstPort: 80,
	}
}

func TestRateEnvelope(t *testing.T) {
	cfg := Config{}.withDefaults()
	peak := cfg.WikiRate(time.Duration(peakHour * float64(time.Hour)))
	trough := cfg.WikiRate(time.Duration((peakHour - 12) * float64(time.Hour)))
	wantPeak := replayScale * fullPeakRate
	wantTrough := replayScale * fullTroughRate
	if math.Abs(peak-wantPeak) > 0.5 {
		t.Fatalf("peak rate = %v, want %v", peak, wantPeak)
	}
	if math.Abs(trough-wantTrough) > 0.5 {
		t.Fatalf("trough rate = %v, want %v", trough, wantTrough)
	}
	// Max bound must dominate the whole day.
	for h := 0.0; h < 24; h += 0.25 {
		if r := cfg.WikiRate(time.Duration(h * float64(time.Hour))); r > maxWikiRate {
			t.Fatalf("rate %v at hour %v exceeds maxWikiRate %v", r, h, maxWikiRate)
		}
	}
}

func TestStaticRateRatio(t *testing.T) {
	cfg := Config{}.withDefaults()
	at := 5 * time.Hour
	ratio := cfg.StaticRate(at) / cfg.WikiRate(at)
	if math.Abs(ratio-staticPerWiki) > 1e-9 {
		t.Fatalf("static/wiki ratio = %v, want %v", ratio, staticPerWiki)
	}
}

func TestPageURLRoundTrip(t *testing.T) {
	for _, id := range []int{0, 1, 42, 199_999} {
		page, ok := ParsePageURL(PageURL(id))
		if !ok || page != id {
			t.Fatalf("round trip failed for %d: %d %v", id, page, ok)
		}
	}
	if _, ok := ParsePageURL(StaticURL(3)); ok {
		t.Fatal("static URL parsed as page")
	}
	if _, ok := ParsePageURL("/wiki/index.php?title=Article_xyz"); ok {
		t.Fatal("garbage id parsed")
	}
	if !strings.Contains(PageURL(1), "/wiki/index.php") {
		t.Fatal("PageURL lacks the paper's wiki-page marker")
	}
}

type request struct {
	at     time.Duration
	url    string
	isWiki bool
}

// drainDay collects every request of the day cfg describes.
func drainDay(cfg Config) []request {
	var day []request
	s := NewStream(cfg)
	for at, url, isWiki, done := s.Next(); !done; at, url, isWiki, done = s.Next() {
		day = append(day, request{at, url, isWiki})
	}
	return day
}

// TestSynthesizeShortWindow drains a day compressed to 10 simulated
// minutes: the wiki count is what the rate envelope integrates to,
// statics come at staticPerWiki per page, arrivals are in time order,
// and the paper's URL marker classes each request.
func TestSynthesizeShortWindow(t *testing.T) {
	cfg := Config{Seed: 1, Compression: 144}
	day := drainDay(cfg)
	wikiN := 0
	for i, r := range day {
		if i > 0 && r.at < day[i-1].at {
			t.Fatalf("request %d at %v after %v", i, r.at, day[i-1].at)
		}
		if r.at < 0 || r.at >= cfg.VirtualHorizon() {
			t.Fatalf("request %d at %v, outside [0, %v)", i, r.at, cfg.VirtualHorizon())
		}
		if r.isWiki != strings.Contains(r.url, "/wiki/index.php") {
			t.Fatalf("request %d: %q classed isWiki=%v", i, r.url, r.isWiki)
		}
		if r.isWiki {
			wikiN++
		}
	}
	// The replayed wiki rate averages replayScale × (250+125)/2 = 93.75/s
	// over the day's 600 virtual seconds: ≈ 56,000 pages.
	if wikiN < 50000 || wikiN > 62000 {
		t.Fatalf("wiki count = %d, out of plausible range", wikiN)
	}
	if ratio := float64(len(day)-wikiN) / float64(wikiN); ratio < 3.8 || ratio > 4.2 {
		t.Fatalf("static/wiki = %v, want ≈4", ratio)
	}
}

// TestSynthesizeDeterministic checks that a seed repeats its day exactly.
func TestSynthesizeDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Compression: 1440}
	day := drainDay(cfg)
	if len(day) == 0 {
		t.Fatal("empty day")
	}
	if !slices.Equal(day, drainDay(cfg)) {
		t.Fatal("two streams with the same seed differ")
	}
}

func TestSizeFactorRangeAndDeterminism(t *testing.T) {
	for id := 0; id < 10000; id++ {
		f := SizeFactor(id)
		if f < 0.5 || f > 3.0 {
			t.Fatalf("SizeFactor(%d) = %v out of [0.5, 3]", id, f)
		}
		if f != SizeFactor(id) {
			t.Fatal("SizeFactor not deterministic")
		}
	}
}

func TestReplicaStaticVsWikiCosts(t *testing.T) {
	rep := NewReplica(1, CostModel{})
	var staticSum, wikiSum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		staticSum += rep.DemandURL(StaticURL(i % 100))
	}
	for i := 0; i < n; i++ {
		wikiSum += rep.DemandURL(PageURL(i % 5000))
	}
	staticMean := staticSum / n
	wikiMean := wikiSum / n
	if staticMean > 2*time.Millisecond {
		t.Fatalf("static mean %v too expensive", staticMean)
	}
	if wikiMean < 50*time.Millisecond {
		t.Fatalf("wiki mean %v too cheap", wikiMean)
	}
	if wikiMean < 20*staticMean {
		t.Fatalf("wiki/static cost ratio too small: %v vs %v", wikiMean, staticMean)
	}
}

func TestReplicaCacheEffect(t *testing.T) {
	rep := NewReplica(2, CostModel{CacheCapacity: 100})
	// First touch of a page: miss. Subsequent touches: hits (page stays hot).
	page := PageURL(7)
	rep.DemandURL(page)
	if rep.HitRate() != 0 {
		t.Fatalf("first access hit rate = %v", rep.HitRate())
	}
	var hitSum time.Duration
	const n = 500
	for i := 0; i < n; i++ {
		hitSum += rep.DemandURL(page)
	}
	if rep.HitRate() < 0.99 {
		t.Fatalf("hit rate = %v after hammering one page", rep.HitRate())
	}
	// Hit cost must be well below a miss-heavy workload's cost.
	missRep := NewReplica(3, CostModel{CacheCapacity: 10})
	var missSum time.Duration
	for i := 0; i < n; i++ {
		missSum += missRep.DemandURL(PageURL(i + 1000)) // all distinct → all miss
	}
	if hitSum*2 >= missSum {
		t.Fatalf("cache hits not cheaper: hits %v vs misses %v", hitSum/n, missSum/n)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRU(3)
	c.insert(1)
	c.insert(2)
	c.insert(3)
	c.touch(1) // 1 hot; 2 is LRU
	c.insert(4)
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	if c.touch(2) {
		t.Fatal("LRU page 2 survived eviction")
	}
	for _, p := range []int{1, 3, 4} {
		if !c.touch(p) {
			t.Fatalf("page %d wrongly evicted", p)
		}
	}
	// Duplicate insert is a no-op.
	c.insert(4)
	if c.Len() != 3 {
		t.Fatal("duplicate insert changed size")
	}
	// Degenerate capacity.
	d := newLRU(0)
	d.insert(1)
	if d.Len() != 1 {
		t.Fatal("capacity clamp failed")
	}
}

func TestReplicaDemandFromPayload(t *testing.T) {
	rep := NewReplica(4, CostModel{})
	payload := append(make([]byte, 8), []byte(StaticURL(1))...)
	d := rep.Demand(dummyFlow(), payload)
	if d <= 0 || d > 20*time.Millisecond {
		t.Fatalf("static demand via payload = %v", d)
	}
	// Short payload behaves as an unknown (static-class) request.
	if d := rep.Demand(dummyFlow(), nil); d <= 0 {
		t.Fatalf("empty payload demand = %v", d)
	}
}
