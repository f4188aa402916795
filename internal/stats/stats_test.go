package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestDescribeKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	d := Describe(xs)
	if d.N != 5 || d.Min != 1 || d.Max != 5 {
		t.Fatalf("shape: %+v", d)
	}
	approx(t, d.Mean, 3, 1e-12, "mean")
	approx(t, d.Std, math.Sqrt(2.5), 1e-12, "std")
	approx(t, d.StdErr, math.Sqrt(0.5), 1e-12, "stderr")
	// t_{0.975,4} = 2.776 → CI = 2.776 × √0.5 ≈ 1.963
	approx(t, d.CI95, 2.776*math.Sqrt(0.5), 1e-9, "ci95")
	approx(t, d.Lo(), d.Mean-d.CI95, 1e-12, "lo")
	approx(t, d.Hi(), d.Mean+d.CI95, 1e-12, "hi")
}

func TestDescribeDegenerate(t *testing.T) {
	// Below two replicates the interval is unknown — CI95 is +Inf so an
	// adaptive stopper can never read a 1-seed cell as converged, and
	// ReportedCI95 maps the sentinel to 0 at serialization boundaries.
	if d := Describe(nil); d.N != 0 || d.Mean != 0 || !math.IsInf(d.CI95, 1) {
		t.Fatalf("empty: %+v", d)
	}
	d := Describe([]float64{7})
	if d.N != 1 || d.Mean != 7 || d.Std != 0 || !math.IsInf(d.CI95, 1) {
		t.Fatalf("single: %+v", d)
	}
	if got := d.ReportedCI95(); got != 0 {
		t.Fatalf("ReportedCI95 of unknown interval = %g, want 0", got)
	}
	if !math.IsInf(d.Hi(), 1) || !math.IsInf(d.Lo(), -1) {
		t.Fatalf("unknown interval edges: lo=%g hi=%g", d.Lo(), d.Hi())
	}
}

func TestMeanCI95UnknownBelowTwo(t *testing.T) {
	// Regression for the adaptive-replication early-stop bug: the old
	// MeanCI95 returned 0 for n < 2, which a "relative CI below target?"
	// gate reads as instant convergence at one seed.
	if !math.IsInf(MeanCI95(nil), 1) {
		t.Fatal("MeanCI95(nil) must be +Inf (unknown), not 0")
	}
	if !math.IsInf(MeanCI95([]float64{3.5}), 1) {
		t.Fatal("MeanCI95 of one observation must be +Inf (unknown), not 0")
	}
	if ci := MeanCI95([]float64{1, 2}); math.IsInf(ci, 0) || ci <= 0 {
		t.Fatalf("MeanCI95 of two observations = %g, want finite and positive", ci)
	}
	// Finite intervals pass through ReportedCI95 untouched.
	d := Describe([]float64{1, 2, 3})
	if d.ReportedCI95() != d.CI95 {
		t.Fatalf("ReportedCI95 altered a finite interval: %g != %g", d.ReportedCI95(), d.CI95)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	approx(t, Percentile(xs, 0), 1, 0, "p0")
	approx(t, Percentile(xs, 1), 4, 0, "p100")
	approx(t, Percentile(xs, 0.5), 2.5, 1e-12, "median")
	approx(t, Percentile(xs, 0.75), 3.25, 1e-12, "p75")
	// Input must not be mutated (callers hand in live replicate slices).
	if xs[0] != 4 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestTInv95(t *testing.T) {
	approx(t, TInv95(1), 12.706, 1e-9, "df=1")
	approx(t, TInv95(4), 2.776, 1e-9, "df=4")
	approx(t, TInv95(30), 2.042, 1e-9, "df=30")
	// Beyond the table: the expansion must track the known values.
	approx(t, TInv95(40), 2.021, 0.002, "df=40")
	approx(t, TInv95(60), 2.000, 0.002, "df=60")
	approx(t, TInv95(1_000_000), z975, 1e-4, "df→∞")
	if TInv95(0) != z975 {
		t.Fatal("df<=0 must fall back to the normal quantile")
	}
}

// TestCICoverage is the honesty check on the whole CI pipeline: for
// repeated small-n samples from a known normal, the Student-t 95%
// interval must cover the true mean at ≈ the nominal rate.
func TestCICoverage(t *testing.T) {
	const (
		trials = 600
		n      = 8
		mu     = 10.0
		sigma  = 2.0
	)
	r := rand.New(rand.NewPCG(12345, 67890))
	covered := 0
	for range trials {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = mu + sigma*r.NormFloat64()
		}
		d := Describe(xs)
		if d.Lo() <= mu && mu <= d.Hi() {
			covered++
		}
	}
	rate := float64(covered) / trials
	// Nominal 0.95; binomial sd over 600 trials ≈ 0.009. The seed is
	// fixed, so this is a deterministic regression bound, not a flake.
	if rate < 0.92 || rate > 0.98 {
		t.Fatalf("coverage = %.3f, want ≈ 0.95", rate)
	}
}

func TestReplicated(t *testing.T) {
	vals := []time.Duration{100 * time.Millisecond, 120 * time.Millisecond, 110 * time.Millisecond}
	rep := NewReplicated(vals, func(d time.Duration) float64 { return d.Seconds() })
	if rep.Dist.N != 3 {
		t.Fatalf("n = %d", rep.Dist.N)
	}
	approx(t, rep.Dist.Mean, 0.110, 1e-12, "mean seconds")
	if rep.Dist.CI95 <= 0 {
		t.Fatal("three distinct replicates must yield a positive CI")
	}
	if len(rep.Values) != 3 || rep.Values[1] != 120*time.Millisecond {
		t.Fatal("raw values not preserved")
	}
}
