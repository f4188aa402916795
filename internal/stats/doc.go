// Package stats is the replication-statistics layer of the SRLB
// evaluation: it turns per-seed point estimates into mean ± confidence
// intervals, so that every figure and benchmark artifact reports a
// statistical statement over repeated runs instead of a single-seed
// number.
//
// # Why this package exists
//
// The paper's headline claims — figure 2's response-time reduction, the
// fairness CDFs — are statements about distributions over repeated
// experiments. A simulation replicated over k seeds yields k independent
// observations of each metric (per-seed mean response time, per-seed
// p99, …); this package summarizes those observations.
//
// # The two core types
//
//   - Dist describes a sample of float64 observations: count, mean,
//     sample standard deviation, standard error, and the half-width of
//     the Student-t 95% confidence interval on the mean. Build one with
//     Describe.
//   - Replicated[T] pairs the raw per-replicate values of any metric
//     type (time.Duration, float64, int, …) with the Dist of their
//     float64 projection. Build one with NewReplicated.
//
// The experiments package aggregates sweep cells into
// Replicated[time.Duration] (response-time metrics, projected to
// seconds) and Replicated[float64]/Replicated[int] (fractions, counts);
// cmd/srlb-bench serializes the resulting Dists into BENCH_sweep.json
// (see docs/RESULTS_SCHEMA.md).
//
// # Confidence intervals
//
// Mean CIs use the Student-t distribution with n−1 degrees of freedom
// (TInv95), the standard small-sample interval: with the usual 3–10
// seeds per cell, the normal approximation would be badly anticonservative
// (z=1.96 vs t=4.30 at n=3). A Dist with n < 2 has CI95 = 0 — a single
// replicate carries no dispersion information; callers should treat a
// zero CI at N == 1 as "unknown", not "exact".
//
// For order statistics of a single sample (percentiles), where the t
// interval does not apply, the package provides a seeded bootstrap
// percentile interval, BootstrapCI, for any statistic. (CDF bands are
// across-seed bands of per-seed sketch quantiles; see
// experiments.CDFBand.) Bootstrap resampling draws from an explicit
// seed through the repo's central internal/rng streams, so results are
// deterministic and reproducible — the same property the Runner
// guarantees for simulation cells.
//
// # Choosing the number of seeds
//
// The CI half-width shrinks as s/√n·t(n−1): going from 1 seed to 5
// buys an actual interval, going from 5 to 10 shrinks it by ~30%.
// Experience with the SRLB testbed: 5 seeds resolve the RR-vs-SR4 gap
// at high load (the effect is ~2×, far wider than the CI); near-equal
// policies (SR8 vs SR16 at light load) may need 10–20 seeds before the
// intervals separate. See the root package documentation ("Interpreting
// results") for how this threads through Sweep.Seeds.
package stats
