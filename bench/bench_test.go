package main

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestMain shrinks the isolates' loops: the smoke test checks what is
// emitted, not the numbers.
func TestMain(m *testing.M) {
	isolateOps = 2000
	os.Exit(m.Run())
}

// smallWorkloads are the five workloads at roughly 1/500 of their size,
// under their real names.
func smallWorkloads() []workload {
	return []workload{
		{"cell_sr4_rho85", func(seed uint64) runner {
			c := newCellSR4(seed)
			c.roundOps, c.batch = 4000, 200
			return c
		}},
		{"cell_flowlet_fb", func(seed uint64) runner {
			c := newCellFlowlet(seed)
			c.roundOps, c.batch = 4000, 200
			return c
		}},
		{"fig2_sweep", func(seed uint64) runner {
			f := newFig2(seed)
			f.servers, f.queries, f.rhos = 4, 3000, []float64{0.4, 0.88}
			// The 1.5x anchor is a paper-scale fact; this small SR4 must
			// merely not lose to RR.
			f.minImprovement = 1
			return f
		}},
		{"dispatch_steered", func(seed uint64) runner {
			s := newSteered(seed)
			s.shape, s.batch = rigShape{vips: 100, flows: 512}, 500
			return s
		}},
		{"dispatch_churn", func(seed uint64) runner {
			c := newChurn(seed)
			c.shape, c.batch = rigShape{vips: 100}, 500
			return c
		}},
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadTestSpec reads the repository's BENCHMARK.json, which loadSpec
// checks against the workload registry.
func loadTestSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks the declarations the program runs against.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	seen := make(map[string]bool)
	check := func(kind string, decls []metricDecl, bounded bool) {
		for _, d := range decls {
			if !metricName.MatchString(d.Name) {
				t.Errorf("%s: bad metric name %q", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: %s declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better=%q", kind, d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, true)
	check("per_layer", spec.PerLayer, false)
}

// TestSmoke runs every workload small, both passes, and checks that each
// declared metric is emitted exactly once per workload, that the run is
// correct, and that no end-to-end metric reads zero.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for i, w := range smallWorkloads() {
		if w.name != workloads[i].name {
			t.Fatalf("small workload %d is %s, the registry has %s", i, w.name, workloads[i].name)
		}
		t.Run(w.name, func(t *testing.T) {
			emitted := func(res result, decls []metricDecl) {
				t.Helper()
				if !res.Correct {
					t.Errorf("run not correct: %s", res.Error)
				}
				if res.Attempted < 1 {
					t.Errorf("attempted = %d", res.Attempted)
				}
				if len(res.Metrics) != len(decls) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					v, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s not emitted", d.Name)
					} else if v.Unit != d.Unit {
						t.Errorf("metric %s emitted in %q, declared in %q", d.Name, v.Unit, d.Unit)
					}
				}
			}
			e2e := runUntraced(spec.EndToEnd, w, 42, 0.05)
			emitted(e2e, spec.EndToEnd)
			for _, d := range spec.EndToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v", d.Name, e2e.Metrics[d.Name].Value)
				}
			}
			layers := runTraced(spec.PerLayer, w, 42, 1)
			emitted(layers, spec.PerLayer)
			if layers.trace == nil || layers.trace.Workload != w.name {
				t.Errorf("traced run carries no trace for %s", w.name)
			}
		})
	}
}

// TestWrappersDoNotPerturbSimulation runs one cell plain and one with
// the span wrappers and the tap installed: the simulated outcome must be
// bit-identical.
func TestWrappersDoNotPerturbSimulation(t *testing.T) {
	for _, mk := range []func(uint64) *cellRunner{newCellSR4, newCellFlowlet} {
		plain, wrapped := mk(7), mk(7)
		plain.round(&pass{}, nil, streamFixed, 3000)
		tr := newTracer()
		wrapped.round(&pass{}, tr, streamFixed, 3000)
		if tr.spans() == 0 {
			t.Fatal("the traced round recorded no span")
		}
		if a, b := plain.digest(), wrapped.digest(); a != b {
			t.Errorf("%s: digest %x plain, %x with wrappers", plain.spec.Name, a, b)
		}
		if err := wrapped.verify(); err != nil {
			t.Error(err)
		}
	}
}

// TestSameSeedSameCounts pins that what the benchmark calls exact
// repeats for a seed.
func TestSameSeedSameCounts(t *testing.T) {
	spec := loadTestSpec(t)
	w := smallWorkloads()[0]
	a, b := runTraced(spec.PerLayer, w, 9, 1), runTraced(spec.PerLayer, w, 9, 1)
	for _, name := range []string{"sim.digest", "des.events_per_op", "netsim.hops_per_op", "metrics.incs_per_op",
		"packet.wire_bytes_per_op", "core.calls_per_op", "vrouter.first_accept_frac"} {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v for the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}
