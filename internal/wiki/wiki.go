// Package wiki synthesizes the paper's Wikipedia replay workload (§VI).
//
// The original experiment replays 24 hours of real access traces (a 10%
// sample of wikipedia.org traffic, English-only) against 12 full MediaWiki
// + MySQL + memcached replicas. Neither the traces nor the enwiki database
// dump are available offline, so — per the reproduction's substitution
// rule — this package generates a synthetic day with the same structure:
//
//   - a diurnal request-rate envelope (trough around 08:00 UTC, evening
//     peak, ≈2:1 peak-to-trough ratio — the shape of figure 6's top plot),
//     realized as a nonhomogeneous Poisson process;
//   - two request classes: cheap static objects and CPU-intensive wiki
//     pages (the class the paper analyzes, "/wiki/index.php" URLs);
//   - Zipf page popularity over a large article catalog;
//   - a per-server memcached model (LRU): a page miss pays the MySQL
//     cost, a hit only the render cost — giving realistic heavy-tailed,
//     state-dependent service times per replica.
//
// The day is drawn in memory (Stream), never written to disk, and
// replayed at 50% of its raw rate like the paper's (which could sustain
// 50% of Wikipedia's sampled peak): the evening peak lands near the
// testbed's measured capacity, so the RR baseline visibly degrades while
// SR4 does not. Only the seed and the time compression vary.
package wiki

import (
	"container/list"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"srlb/internal/packet"
	"srlb/internal/rng"
)

// Config parameterizes the synthetic day. A zero Compression replays
// the day in real time; the rest of the day's shape is fixed (see the
// constants below) and reproduces figures 6–8 on the 12-server testbed.
type Config struct {
	Seed uint64
	// Compression speeds up replay by the given factor: the simulated
	// horizon shrinks to 24h/Compression while instantaneous rates
	// (and hence load levels) are preserved, so a 24-hour day can be
	// replayed in 1 simulated hour with Compression=24. Statistical noise
	// per time bin grows accordingly. Default 1 (real time).
	Compression float64
}

// The synthetic day's fixed shape.
const (
	// horizon is the length of the day in trace time.
	horizon = 24 * time.Hour
	// fullPeakRate and fullTroughRate are the raw day's wiki-page rates in
	// queries/sec: replayed at replayScale the evening peak lands at
	// ~0.88 of the testbed capacity measured with the ~0.69-hit cache
	// model. Float constants: WikiRate halves their sum and difference.
	fullPeakRate   = 250.0
	fullTroughRate = 125.0
	// replayScale scales the raw day at replay: the paper's "50% of the
	// peak load".
	replayScale = 0.5
	// peakHour is the local hour of the rate maximum.
	peakHour = 20
	// staticPerWiki is the ratio of static-object requests to wiki-page
	// requests.
	staticPerWiki = 4
	// zipfS is the article popularity exponent.
	zipfS = 0.8
	// staticObjects is the static catalog size.
	staticObjects = 20_000
)

func (c Config) withDefaults() Config {
	if c.Compression == 0 {
		c.Compression = 1
	}
	return c
}

// VirtualHorizon returns the simulated duration of the replay:
// 24h / Compression.
func (c Config) VirtualHorizon() time.Duration { return c.Virtual(horizon) }

// Virtual maps a span of trace (wall-clock) time to replay time, the
// inverse of RealTime.
func (c Config) Virtual(real time.Duration) time.Duration {
	return time.Duration(float64(real) / c.withDefaults().Compression)
}

// CatalogPages returns the article-catalog size: 200 000 articles scaled
// down with compression, to at least 2000. The arrivals-per-page ratio —
// and hence memcached hit-rate dynamics, which feed straight into CPU
// demand — stays invariant: a compressed day sees proportionally fewer
// queries, so it gets a proportionally smaller catalog.
func (c Config) CatalogPages() int {
	return max(int(200_000/c.withDefaults().Compression), 2000)
}

// RealTime maps a virtual replay instant back to trace (wall-clock) time.
func (c Config) RealTime(virtual time.Duration) time.Duration {
	c = c.withDefaults()
	return time.Duration(float64(virtual) * c.Compression)
}

// WikiRate returns the replayed wiki-page arrival rate (queries/sec) at
// *virtual* time t: a sinusoid over the (possibly compressed) day with its
// minimum 12h before peakHour, scaled by replayScale.
func (c Config) WikiRate(t time.Duration) float64 {
	const (
		mean = (fullPeakRate + fullTroughRate) / 2
		amp  = (fullPeakRate - fullTroughRate) / 2
	)
	phase := 2 * math.Pi * (c.RealTime(t).Hours() - peakHour) / 24
	return replayScale * (mean + amp*math.Cos(phase))
}

// StaticRate returns the static-object arrival rate at time t.
func (c Config) StaticRate(t time.Duration) float64 {
	return staticPerWiki * c.WikiRate(t)
}

// maxWikiRate bounds WikiRate over the day (for NHPP thinning).
const maxWikiRate = replayScale * fullPeakRate * 1.0001

// PageURL renders the wiki-page URL for an article id — the paper
// identifies wiki pages "by the string /wiki/index.php in their URL".
func PageURL(page int) string {
	return fmt.Sprintf("/wiki/index.php?title=Article_%d", page)
}

// StaticURL renders a static-object URL.
func StaticURL(obj int) string {
	return fmt.Sprintf("/w/static/obj_%d.css", obj)
}

// ParsePageURL extracts the article id from a wiki-page URL; ok=false for
// static or foreign URLs.
func ParsePageURL(url string) (int, bool) {
	const marker = "/wiki/index.php?title=Article_"
	if !strings.HasPrefix(url, marker) {
		return 0, false
	}
	id, err := strconv.Atoi(url[len(marker):])
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}

// Stream lazily generates the synthetic day's requests in time order by
// merging the wiki-page and static NHPP streams — memory use is O(1)
// regardless of the day's length, so full 24-hour replays can be driven
// without materializing tens of millions of requests.
type Stream struct {
	cfg      Config
	zipf     *rng.Zipf
	statZipf *rng.Zipf
	wiki     *rng.NHPP
	static   *rng.NHPP
	nextWiki time.Duration
	nextStat time.Duration
	okW, okS bool
}

// NewStream starts a synthetic-day stream.
func NewStream(cfg Config) *Stream {
	cfg = cfg.withDefaults()
	s := &Stream{
		cfg:      cfg,
		zipf:     rng.NewZipf(rng.Split(cfg.Seed, 0x21bf), cfg.CatalogPages(), zipfS),
		statZipf: rng.NewZipf(rng.Split(cfg.Seed, 0x57a8), staticObjects, 0.6),
		wiki:     rng.NewNHPP(rng.Split(cfg.Seed, 0x71c1), cfg.WikiRate, maxWikiRate, 0),
		static:   rng.NewNHPP(rng.Split(cfg.Seed, 0x57a7), cfg.StaticRate, staticPerWiki*maxWikiRate, 0),
	}
	s.nextWiki, s.okW = s.wiki.Next(cfg.VirtualHorizon())
	s.nextStat, s.okS = s.static.Next(cfg.VirtualHorizon())
	return s
}

// Next returns the next request's virtual arrival time and URL, and
// whether it is a wiki page; done=true at end of day.
func (s *Stream) Next() (at time.Duration, url string, isWiki, done bool) {
	switch {
	case !s.okW && !s.okS:
		return 0, "", false, true
	case s.okW && (!s.okS || s.nextWiki <= s.nextStat):
		at, url = s.nextWiki, PageURL(s.zipf.Draw())
		s.nextWiki, s.okW = s.wiki.Next(s.cfg.VirtualHorizon())
		return at, url, true, false
	default:
		at, url = s.nextStat, StaticURL(s.statZipf.Draw())
		s.nextStat, s.okS = s.static.Next(s.cfg.VirtualHorizon())
		return at, url, false, false
	}
}

// The CPU demands of a request on a replica, calibrated so the
// 12×(2-core) testbed shows the paper's response-time regime (§VI-C:
// wiki-page medians of 0.15–0.25 s under moderate load, ~1 ms statics).
const (
	// staticMean is the CPU cost of a static object.
	staticMean = 600 * time.Microsecond
	// renderMean/renderCV: PHP parse+render cost of a wiki page,
	// multiplied by the page's size factor.
	renderMean = 70 * time.Millisecond
	renderCV   = 0.45
	// hitMean: extra cost when the page's data is in memcached.
	hitMean = 12 * time.Millisecond
	// missMean/missCV: extra cost of MySQL queries on a memcached miss.
	missMean = 240 * time.Millisecond
	missCV   = 0.6
)

// CostModel maps requests to CPU demand on a replica; zero fields take
// defaults.
type CostModel struct {
	// CacheCapacity is the per-server memcached capacity in pages
	// (default 8000).
	CacheCapacity int
	// Prewarm seeds the cache with the most popular pages (ranks
	// 0..CacheCapacity-1) at construction, modeling a long-running
	// memcached rather than a cold start. The replay experiments enable
	// it; default off so cache dynamics are observable from scratch.
	Prewarm bool
}

func (m CostModel) withDefaults() CostModel {
	if m.CacheCapacity == 0 {
		m.CacheCapacity = 8000
	}
	return m
}

// SizeFactor returns the deterministic per-article size multiplier in
// [0.5, 3.0], hashed from the article id (long articles render slower).
func SizeFactor(page int) float64 {
	// xorshift-style mix for a uniform-ish value in [0,1).
	x := uint64(page)*0x9e3779b97f4a7c15 + 0x7f4a7c15
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	u := float64(x%1_000_000) / 1_000_000
	// Skew towards small articles: square the uniform and stretch.
	return 0.5 + 2.5*u*u
}

// Replica models one server's cache-dependent cost function.
type Replica struct {
	model  CostModel
	cache  *lruCache
	rngSrc *rand.Rand
	hits   uint64
	misses uint64
}

// ScaledTo adjusts an unset CacheCapacity to one third of the page
// catalog: under Zipf(0.8) popularity the top third of articles draws
// ((1/3)^0.2 ≈) 80% of the traffic, so an LRU of that size yields the
// ≈0.8 steady-state hit rate of a production memcached in front of
// MySQL. Keeping the capacity-to-catalog ratio fixed makes hit rates —
// which feed straight into CPU demand and hence load — approximately
// invariant under trace compression. An explicitly set capacity wins.
func (m CostModel) ScaledTo(pages int) CostModel {
	if m.CacheCapacity == 0 && pages > 0 {
		m.CacheCapacity = pages / 3
		if m.CacheCapacity < 100 {
			m.CacheCapacity = 100
		}
	}
	return m.withDefaults()
}

// NewReplica builds a replica cost model seeded independently.
func NewReplica(seed uint64, model CostModel) *Replica {
	model = model.withDefaults()
	rep := &Replica{
		model:  model,
		cache:  newLRU(model.CacheCapacity),
		rngSrc: rng.Split(seed, 0xcac4e),
	}
	if model.Prewarm {
		// Zipf rank i is page id i, so the popular head is 0..K-1. Insert
		// in reverse so rank 0 ends up most recently used.
		for page := model.CacheCapacity - 1; page >= 0; page-- {
			rep.cache.insert(page)
		}
	}
	return rep
}

// HitRate reports the replica's memcached hit fraction so far.
func (rep *Replica) HitRate() float64 {
	total := rep.hits + rep.misses
	if total == 0 {
		return 0
	}
	return float64(rep.hits) / float64(total)
}

// Demand implements vrouter.DemandFn over testbed payloads: the URL is
// carried after the 8-byte demand slot (which the wiki workload leaves
// zero — cost is server-state dependent and computed here).
func (rep *Replica) Demand(_ packet.FlowKey, payload []byte) time.Duration {
	url := ""
	if len(payload) > 8 {
		url = string(payload[8:])
	}
	return rep.DemandURL(url)
}

// DemandURL computes the CPU demand of serving url on this replica.
func (rep *Replica) DemandURL(url string) time.Duration {
	page, isWiki := ParsePageURL(url)
	if !isWiki {
		return rng.Exp(rep.rngSrc, staticMean)
	}
	render := time.Duration(float64(rng.LogNormal(rep.rngSrc, renderMean, renderCV)) * SizeFactor(page))
	var db time.Duration
	if rep.cache.touch(page) {
		rep.hits++
		db = rng.Exp(rep.rngSrc, hitMean)
	} else {
		rep.misses++
		db = rng.LogNormal(rep.rngSrc, missMean, missCV)
		rep.cache.insert(page)
	}
	return render + db
}

// lruCache is a fixed-capacity LRU set of page ids (the memcached model).
type lruCache struct {
	cap   int
	list  *list.List
	index map[int]*list.Element
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache{cap: capacity, list: list.New(), index: make(map[int]*list.Element)}
}

// touch returns true (and refreshes recency) when page is cached.
func (c *lruCache) touch(page int) bool {
	if el, ok := c.index[page]; ok {
		c.list.MoveToFront(el)
		return true
	}
	return false
}

// insert adds page, evicting the LRU entry at capacity.
func (c *lruCache) insert(page int) {
	if _, ok := c.index[page]; ok {
		return
	}
	if c.list.Len() >= c.cap {
		back := c.list.Back()
		delete(c.index, back.Value.(int))
		c.list.Remove(back)
	}
	c.index[page] = c.list.PushFront(page)
}

// Len returns the number of cached pages.
func (c *lruCache) Len() int { return c.list.Len() }
