package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// bisect is the classic serial bisection the ladder replaces, on the
// same bracket and the same probe cells, one probe at a time. It returns
// the drop-onset rate and the number of probes it ran.
func bisect(cfg CalibrationConfig) (lambda0 float64, probes int) {
	cfg = cfg.withDefaults()
	drops := func(rate float64) bool {
		probes++
		cell := Scenario{
			Cluster: cfg.Cluster, Policy: RR(), Load: 1,
			Workload: OneService(PoissonService{Lambda0: rate, Queries: cfg.Queries}),
		}.Run(context.Background())
		return cell.Outcome.Refused > 0
	}
	theoretical := cfg.Cluster.TheoreticalCapacity()
	lo, hi := 0.5*theoretical, 1.5*theoretical
	for drops(lo) && lo > 1 {
		hi = lo
		lo /= 2
	}
	for !drops(hi) {
		lo = hi
		hi *= 2
	}
	for (hi-lo)/hi > calRelTol {
		if mid := (lo + hi) / 2; drops(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, probes
}

// TestCalibrateParallelMatchesSerial is the equivalence guarantee the
// speculative ladder advertises: the concurrent K-section search must
// land within one bisection tolerance of the classic serial bisection,
// while issuing its probes concurrently.
func TestCalibrateParallelMatchesSerial(t *testing.T) {
	cfg := CalibrationConfig{Cluster: smallCluster(31), Queries: 3000, Workers: 4}
	serial, serialProbes := bisect(cfg)
	parallel := Calibrate(cfg)

	tol := calRelTol * serial
	if diff := math.Abs(parallel.Lambda0 - serial); diff > tol {
		t.Fatalf("parallel lambda0 = %.2f, serial = %.2f: differ by %.2f > tolerance %.2f",
			parallel.Lambda0, serial, diff, tol)
	}
	// The ladder must need fewer serial rounds: with a fan of 4 each
	// round shrinks the bracket 5×, so the total probe count can be
	// higher but the round count (probes/fan) must be well below the
	// serial one.
	if len(parallel.Probes) >= 2*serialProbes {
		t.Fatalf("parallel path ran %d probes vs %d serial — speculation out of control",
			len(parallel.Probes), serialProbes)
	}
}

// TestCalibrateDeterministicAcrossWorkers: the probe list and λ0 are
// pure functions of the config — worker scheduling must not show.
func TestCalibrateDeterministicAcrossWorkers(t *testing.T) {
	cfg := CalibrationConfig{Cluster: smallCluster(32), Queries: 2000}
	one := cfg
	one.Workers = 1
	many := cfg
	many.Workers = 8
	a, b := Calibrate(one), Calibrate(many)
	if a.Lambda0 != b.Lambda0 {
		t.Fatalf("lambda0 differs across worker counts: %v vs %v", a.Lambda0, b.Lambda0)
	}
	if !reflect.DeepEqual(a.Probes, b.Probes) {
		t.Fatalf("probe lists differ across worker counts:\n%v\n%v", a.Probes, b.Probes)
	}
}

// TestCalibrateLadderProbes pins the ladder's shape: the bracket's two
// ends, then a round of four evenly spaced interior rates, the bracket
// cut into fifths.
func TestCalibrateLadderProbes(t *testing.T) {
	cfg := CalibrationConfig{Cluster: smallCluster(33), Queries: 2000, Workers: 1}
	res := Calibrate(cfg)
	// Well-bracketed: the first two probes are 0.5× then 1.5× the
	// theoretical capacity.
	lo, hi := 0.5*res.Theoretical, 1.5*res.Theoretical
	if len(res.Probes) < 6 {
		t.Fatalf("only %d probes", len(res.Probes))
	}
	if res.Probes[0].RatePerSec != lo || res.Probes[1].RatePerSec != hi {
		t.Fatalf("widening probes = %v, %v; want %v, %v",
			res.Probes[0].RatePerSec, res.Probes[1].RatePerSec, lo, hi)
	}
	step := (hi - lo) / 5
	for i, p := range res.Probes[2:6] {
		if want := lo + float64(i+1)*step; p.RatePerSec != want {
			t.Fatalf("first round probe %d = %v, want %v", i, p.RatePerSec, want)
		}
	}
}

func TestCalibrateCached(t *testing.T) {
	cfg := CalibrationConfig{Cluster: smallCluster(34), Queries: 2000}
	first := CalibrateCached(cfg)
	second := CalibrateCached(cfg)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached calibration differs from the first run")
	}
	// Same backing array ⇒ the second call was a cache hit, not a rerun.
	if len(first.Probes) == 0 || &first.Probes[0] != &second.Probes[0] {
		t.Fatal("second CalibrateCached call re-ran the probes")
	}
	if direct := Calibrate(cfg); direct.Lambda0 != first.Lambda0 {
		t.Fatalf("cached lambda0 %v != direct %v", first.Lambda0, direct.Lambda0)
	}
	// A different topology must miss the cache.
	other := cfg
	other.Cluster.Seed++
	if third := CalibrateCached(other); len(third.Probes) > 0 && &third.Probes[0] == &first.Probes[0] {
		t.Fatal("different cluster fingerprints collided in the cache")
	}
}

func TestCalibrationFingerprint(t *testing.T) {
	a := CalibrationConfig{Cluster: smallCluster(35)}
	b := a
	if a.fingerprint() != b.fingerprint() {
		t.Fatal("identical configs must share a fingerprint")
	}
	b.Cluster.Servers = 6
	if a.fingerprint() == b.fingerprint() {
		t.Fatal("server count must be part of the fingerprint")
	}
	c := a
	c.Queries = 123
	if a.fingerprint() == c.fingerprint() {
		t.Fatal("probe batch size must be part of the fingerprint")
	}
	// The fingerprint must be stable across calls, or the cache would
	// never hit.
	if a.fingerprint() != (CalibrationConfig{Cluster: smallCluster(35)}).fingerprint() {
		t.Fatal("fingerprint not stable across configs")
	}
}

// A probe the cluster's queues swallow whole never refuses, at any rate:
// the upward ladder stops after maxWidenings doublings, on finite rates,
// and says so.
func TestCalibrateWithoutDropOnsetFails(t *testing.T) {
	res := Calibrate(CalibrationConfig{Cluster: smallCluster(1), Queries: 500, Workers: 1})
	if res.Err == nil || res.Lambda0 != 0 {
		t.Fatalf("Lambda0 %.1f, err %v: want an error and no rate", res.Lambda0, res.Err)
	}
	if n := len(res.Probes); n != maxWidenings+2 {
		t.Fatalf("%d probes, want the low probe plus %d on the ladder", n, maxWidenings+1)
	}
	for _, p := range res.Probes {
		if math.IsInf(p.RatePerSec, 0) || p.Refused != 0 {
			t.Fatalf("probe %+v: want finite rates that never refuse", p)
		}
	}
}

// Every Poisson-family study handed λ0 runs on it: none adds an entry to
// the calibration cache. RunHetero needs no λ0 at all — it normalises by
// the mixed cluster's theoretical capacity — so it calibrates nothing
// even when λ0 is left at 0.
func TestGivenLambda0RunsNoCalibration(t *testing.T) {
	base := Base{Cluster: ClusterConfig{Seed: 0x1a0, Servers: 4}, Lambda0: 80, Queries: 300}
	uncalibrated := base
	uncalibrated.Lambda0 = 0
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"fig3", func() { RunFig3(base) }},
		{"fig5", func() { RunFig5(base) }},
		{"fig4", func() { RunFig4(base) }},
		{"ablations", func() { RunAllAblations(base) }},
		{"retransmit", func() { RunRetransmitAblation(base) }},
		{"hetero", func() { RunHetero(uncalibrated) }},
		{"churn", func() { RunChurn(base) }},
		{"failover", func() { RunFailover(base) }},
		{"resilience", func() { RunResilience(base) }},
		{"interference", func() { RunInterference(base) }},
		{"policies", func() { RunPolicies(base) }},
		{"multiservice", func() { RunMultiService(MultiServiceConfig{Base: base, Compression: 5760}) }},
		{"rhogrid", func() { RunRhoGrid(RhoGridConfig{Base: base}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := calCacheLen()
			tc.run()
			if after := calCacheLen(); after != before {
				t.Fatalf("calibration cache grew from %d to %d entries", before, after)
			}
		})
	}
}

func calCacheLen() (n int) {
	calCache.Range(func(any, any) bool { n++; return true })
	return n
}
