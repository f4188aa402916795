package experiments

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestSweepAggregate(t *testing.T) {
	const nSeeds = 5
	sweep := Sweep{
		Cluster:  ClusterConfig{Seed: 41, Servers: 4},
		Policies: []PolicySpec{RR(), SRc(4)},
		Loads:    []float64{0.5, 0.85},
		Seeds:    DeriveSeeds(41, nSeeds),
		Workload: OneService(PoissonService{Lambda0: 80, Queries: 1500}),
	}
	agg, err := Runner{}.RunSweepStats(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Cells) != 4 {
		t.Fatalf("aggregated cells = %d, want 4 (policy × load)", len(agg.Cells))
	}
	for pi := range agg.Policies {
		for li := range agg.Loads {
			cs := agg.Cell(pi, li)
			if cs.N() != nSeeds {
				t.Fatalf("cell (%d,%d): n = %d, want %d", pi, li, cs.N(), nSeeds)
			}
			d := cs.Mean.Dist
			if d.CI95 <= 0 || cs.MeanCI95() <= 0 {
				t.Fatalf("cell (%d,%d): %d distinct seeds must yield a positive CI", pi, li, nSeeds)
			}
			if d.Mean < d.Min || d.Mean > d.Max {
				t.Fatalf("cell (%d,%d): mean %v outside [%v, %v]", pi, li, d.Mean, d.Min, d.Max)
			}
			if len(cs.Mean.Values) != nSeeds || len(cs.Refused.Values) != nSeeds {
				t.Fatalf("cell (%d,%d): raw replicate values not preserved", pi, li)
			}
			if cs.MeanRT() <= 0 {
				t.Fatalf("cell (%d,%d): zero aggregate mean", pi, li)
			}
		}
	}
	// The paper's claim must survive aggregation: SR4's whole interval
	// sits below RR's point estimate at high load. (RR's own CI is wide
	// at these small batches — that width is exactly the information a
	// single-seed figure was hiding.)
	rr, sr := agg.Cell(0, 1), agg.Cell(1, 1)
	if sr.Mean.Dist.Hi() >= rr.Mean.Dist.Mean {
		t.Fatalf("SR4 CI [%.3f, %.3f] not below RR mean %.3f at rho=0.85",
			sr.Mean.Dist.Lo(), sr.Mean.Dist.Hi(), rr.Mean.Dist.Mean)
	}
}

func TestAggregateSingleSeedDegenerates(t *testing.T) {
	sweep := Sweep{
		Cluster:  ClusterConfig{Seed: 42, Servers: 4},
		Policies: []PolicySpec{RR()},
		Loads:    []float64{0.5},
		Workload: OneService(PoissonService{Lambda0: 80, Queries: 1000}),
	}
	res, err := Runner{}.RunSweep(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Aggregate().Cell(0, 0)
	if cs.N() != 1 {
		t.Fatalf("n = %d, want 1", cs.N())
	}
	if !math.IsInf(cs.Mean.Dist.CI95, 1) {
		t.Fatal("single replicate must carry an unknown (+Inf) CI, not a finite one")
	}
	if cs.MeanCI95() != 0 {
		t.Fatal("the duration-typed reporting accessor must map the unknown CI to 0")
	}
	// The point estimate must be the underlying cell's, to duration
	// rounding.
	raw := res.Cell(0, 0, 0).Outcome.RT.Mean()
	if diff := cs.MeanRT() - raw; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("aggregate mean %v diverges from the cell's %v", cs.MeanRT(), raw)
	}
}

func TestCDFBandAlignsWithPooledRows(t *testing.T) {
	// Fewer pooled samples than cdfPoints: Histogram.CDF clamps its row
	// count, and the band must follow the same grid row for row.
	res := runCDF(Base{Cluster: ClusterConfig{Seed: 44, Servers: 4}, Lambda0: 80, Queries: 60, Seeds: DeriveSeeds(44, 3)}, 0.5)
	rows := res.RT[0].CDF(cdfPoints)
	band := res.Bands[0]
	if len(rows) >= 200 {
		t.Fatalf("test premise broken: %d pooled rows", len(rows))
	}
	if len(band.Fraction) != len(rows) {
		t.Fatalf("band has %d points, pooled CDF %d rows", len(band.Fraction), len(rows))
	}
	for i := range rows {
		if band.Fraction[i] != rows[i].Fraction {
			t.Fatalf("row %d: band fraction %v != CDF fraction %v", i, band.Fraction[i], rows[i].Fraction)
		}
		if band.Lo[i] > band.Mid[i] || band.Mid[i] > band.Hi[i] {
			t.Fatalf("row %d: band not ordered: %v %v %v", i, band.Lo[i], band.Mid[i], band.Hi[i])
		}
	}
}

func TestFig2Replicated(t *testing.T) {
	res := RunFig2(Fig2Config{
		Cluster:  ClusterConfig{Seed: 43, Servers: 4},
		Lambda0:  80,
		Rhos:     []float64{0.85},
		Policies: []PolicySpec{RR(), SRc(4)},
		Queries:  1500,
		Seeds:    DeriveSeeds(43, 3),
	})
	for pi := range res.Policies {
		pt := res.Points[pi][0]
		if pt.N != 3 {
			t.Fatalf("policy %d: n = %d, want 3", pi, pt.N)
		}
		if pt.MeanCI95 <= 0 || pt.MedianCI95 <= 0 {
			t.Fatalf("policy %d: missing CIs: %+v", pi, pt)
		}
	}
	if len(res.Stats.Cells) != 2 {
		t.Fatalf("stats cells = %d", len(res.Stats.Cells))
	}
}
