// Figure-level benchmarks: one testing.B per evaluation artifact of the
// paper, each running a scaled-but-representative version of the full
// experiment (cmd/srlb-bench regenerates the full-scale artifacts) and
// reporting the figure's headline quantity via b.ReportMetric:
//
//   - Fig2  → SR4-vs-RR mean-RT improvement at ρ=0.88 (paper: up to 2.3×)
//   - Fig3  → high-load median RT per policy
//   - Fig4  → mean Jain fairness, RR vs SR4
//   - Fig5  → light-load median RT per policy
//   - Fig6-8 → whole-day wiki median / Q3, RR vs SR4
//
// Micro-benchmarks for the data-plane hot paths live in the internal
// packages (codecs, Maglev, flow table, DES, PS server).
package srlb_test

import (
	"sync"
	"testing"
	"time"

	"srlb/internal/experiments"
	"srlb/internal/wiki"
)

// benchCluster is the paper's 12-server platform with a fixed bench seed.
var benchCluster = experiments.ClusterConfig{Seed: 0xbe7c, Servers: 12}

// lambda0 is calibrated once and shared by every figure bench.
var (
	lambda0Once sync.Once
	lambda0Val  float64
)

func lambda0(b *testing.B) float64 {
	b.Helper()
	lambda0Once.Do(func() {
		lambda0Val = experiments.Calibrate(experiments.CalibrationConfig{Cluster: benchCluster}).Lambda0
	})
	return lambda0Val
}

// benchQueries keeps a single bench iteration around a second of wall
// time; srlb-bench runs the paper's full 20000.
const benchQueries = 6000

func BenchmarkCalibrateLambda0(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cal := experiments.Calibrate(experiments.CalibrationConfig{Cluster: benchCluster, Queries: benchQueries})
		b.ReportMetric(cal.Lambda0, "lambda0_qps")
	}
}

func BenchmarkFig2_MeanResponseVsLoad(b *testing.B) {
	l0 := lambda0(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig2(experiments.Fig2Config{
			Cluster: benchCluster,
			Lambda0: l0,
			Rhos:    []float64{0.20, 0.61, 0.88},
			Queries: benchQueries,
		})
		if imp, err := res.Improvement("SR 4", 0.88); err == nil {
			b.ReportMetric(imp, "sr4_vs_rr_x")
		}
		if imp, err := res.Improvement("SR dyn", 0.88); err == nil {
			b.ReportMetric(imp, "srdyn_vs_rr_x")
		}
	}
}

func reportCDF(b *testing.B, res experiments.CDFResult) {
	b.Helper()
	for i, spec := range res.Policies {
		name := map[string]string{
			"RR": "rr", "SR 4": "sr4", "SR 8": "sr8", "SR 16": "sr16", "SR dyn": "srdyn",
		}[spec.Name]
		if name == "" {
			continue
		}
		b.ReportMetric(res.RT[i].Median().Seconds(), name+"_median_s")
	}
}

func BenchmarkFig3_CDFHighLoad(b *testing.B) {
	l0 := lambda0(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig3(experiments.Base{Cluster: benchCluster, Lambda0: l0, Queries: benchQueries})
		reportCDF(b, res)
	}
}

func BenchmarkFig4_LoadAndFairness(b *testing.B) {
	l0 := lambda0(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig4(experiments.Base{Cluster: benchCluster, Lambda0: l0, Queries: benchQueries})
		if f, err := res.MeanFairness("RR"); err == nil {
			b.ReportMetric(f, "rr_fairness")
		}
		if f, err := res.MeanFairness("SR 4"); err == nil {
			b.ReportMetric(f, "sr4_fairness")
		}
	}
}

func BenchmarkFig5_CDFLowLoad(b *testing.B) {
	l0 := lambda0(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunFig5(experiments.Base{Cluster: benchCluster, Lambda0: l0, Queries: benchQueries})
		reportCDF(b, res)
	}
}

// benchWiki runs the compressed day shared by the three wiki figures.
func benchWiki(b *testing.B) experiments.WikiResult {
	b.Helper()
	return experiments.RunWiki(experiments.WikiConfig{
		Cluster: benchCluster,
		Day:     wiki.Config{Seed: 0xbe7c, Compression: 288}, // 24h -> 5 min
	})
}

func BenchmarkFig6_WikiMedianTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchWiki(b)
		// Peak-bin medians: the figure's contrast is RR degrading at peak.
		for _, run := range res.Runs {
			peak := run.WikiBins.NumBins() * 5 / 6 // ≈ 20:00 with default phase
			med := run.WikiBins.Bin(peak).Median()
			switch run.Spec.Name {
			case "RR":
				b.ReportMetric(med.Seconds(), "rr_peak_median_s")
			case "SR 4":
				b.ReportMetric(med.Seconds(), "sr4_peak_median_s")
			}
		}
	}
}

func BenchmarkFig7_WikiDeciles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchWiki(b)
		// Spread of the decile fan at the peak bin (d9 - d1): figure 7's
		// point is that SR4's fan is tighter under load.
		for _, run := range res.Runs {
			peak := run.WikiBins.NumBins() * 5 / 6
			d := run.WikiBins.Bin(peak).Deciles()
			spread := (d[8] - d[0]).Seconds()
			switch run.Spec.Name {
			case "RR":
				b.ReportMetric(spread, "rr_decile_spread_s")
			case "SR 4":
				b.ReportMetric(spread, "sr4_decile_spread_s")
			}
		}
	}
}

func BenchmarkFig8_WikiCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := benchWiki(b)
		for _, s := range res.Summaries() {
			switch s.Policy {
			case "RR":
				b.ReportMetric(s.Median.Seconds(), "rr_median_s")
				b.ReportMetric(s.Q3.Seconds(), "rr_q3_s")
			case "SR 4":
				b.ReportMetric(s.Median.Seconds(), "sr4_median_s")
				b.ReportMetric(s.Q3.Seconds(), "sr4_q3_s")
			}
		}
	}
}

// Ablation benches: the design choices the paper fixes (§II-B, §III-A,
// Algorithm 2).

func BenchmarkAblation_CandidateCount(b *testing.B) {
	l0 := lambda0(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.RunAllAblations(experiments.Base{Cluster: benchCluster, Lambda0: l0, Queries: benchQueries / 2})
		// Report the k=2 gain over k=1 from the candidate study.
		for _, study := range res {
			if len(study.Rows) >= 2 && study.Rows[0].Variant == "k=1 (RR)" {
				k1 := study.Rows[0].Mean.Seconds()
				k2 := study.Rows[1].Mean.Seconds()
				if k2 > 0 {
					b.ReportMetric(k1/k2, "k2_vs_k1_x")
				}
			}
		}
	}
}

// End-to-end data-plane throughput: each op is one query fully processed
// (SYN → hunt → accept → steer → respond) including all packet codecs.
func BenchmarkEndToEndQueries(b *testing.B) {
	run := experiments.RunPoisson(benchCluster, experiments.SRc(4), 120, b.N, experiments.PoissonHooks{})
	benchSink = run.RT.Mean()
}

var benchSink time.Duration

// BenchmarkPoissonRun20000 measures the paper-scale batch end to end.
func BenchmarkPoissonRun20000(b *testing.B) {
	l0 := lambda0(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := experiments.RunPoisson(benchCluster, experiments.SRc(4), 0.88*l0, 20000, experiments.PoissonHooks{})
		benchSink = run.RT.Mean()
	}
}
