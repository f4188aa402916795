package experiments

import (
	"cmp"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"srlb/internal/feedback"
	"srlb/internal/testbed"
	"srlb/internal/wiki"
)

// A feedback-enabled cluster must publish load reports whichever caller
// drives the engine. RunHorizon and the wiki replay used to leave
// Feedback.Horizon at zero — no publishing ticker, zero ingests — and the
// load-aware policies silently ran as random2 there.
func TestFeedbackPlanePublishesUnderHorizon(t *testing.T) {
	cfg := horizonCfg(2000)
	cfg.Cluster.Feedback = feedback.Config{Enabled: true}
	var tb *testbed.Testbed
	hooks := PoissonHooks{Testbed: func(built *testbed.Testbed, _ time.Duration) { tb = built }}
	if _, err := runHorizon(context.Background(), cfg, hooks); err != nil {
		t.Fatal(err)
	}
	if got := tb.Feedback.Stats().Ingests; got == 0 {
		t.Fatal("feedback-enabled RunHorizon ingested no load reports")
	}
}

func TestFeedbackPlanePublishesUnderWikiReplay(t *testing.T) {
	cluster := ClusterConfig{Seed: 8, Servers: 4, Feedback: feedback.Config{Enabled: true}}
	var tb *testbed.Testbed
	hooks := PoissonHooks{Testbed: func(built *testbed.Testbed, _ time.Duration) { tb = built }}
	w := OneService(WikiService{Day: wiki.Config{Seed: 8, Compression: 28800}})
	out, err := w.run(context.Background(), cluster, WeightedLeastLoadPolicy(), 1, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if out.PerVIP[0].Offered == 0 {
		t.Fatal("replay launched nothing — test vacuous")
	}
	if got := tb.Feedback.Stats().Ingests; got == 0 {
		t.Fatal("feedback-enabled wiki replay ingested no load reports")
	}
}

// A workload without an arrival span — Lambda0 forgotten, load ≤ 0
// — used to come back as an empty cell with a nil error,
// or, for a rateless Horizon-bounded bursty service, to spin forever.
// Every kind is rejected by the engine's one check, naming the workload
// and the load; each case runs under a deadline so a hang fails the test.
// A wiki day compressed until its report bin rounds to 0ns is rejected
// the same way where its bins are built.
func TestNoArrivalSpanPanics(t *testing.T) {
	cluster := smallCluster(1)
	ctx := context.Background()
	multi := func(svc ServiceWorkload) MultiServiceWorkload {
		return MultiServiceWorkload{Services: []ServiceSpec{
			{Workload: PoissonService{Lambda0: 80, Queries: 100}},
			{Workload: svc},
		}}
	}
	cases := []struct {
		name string
		load float64
		want string
		run  func(load float64)
		// reason is what the panic says is wrong; "" means the span.
		reason string
	}{
		{"poisson without Lambda0", 0.5, "poisson(100q)", func(l float64) {
			OneService(PoissonService{Queries: 100}).Run(ctx, cluster, RR(), l)
		}, ""},
		{"poisson at load 0", 0, "poisson(100q)", func(l float64) {
			OneService(PoissonService{Lambda0: 80, Queries: 100}).Run(ctx, cluster, RR(), l)
		}, ""},
		{"bursty at negative load", -1, "bursty(100q", func(l float64) {
			OneService(BurstyService{Lambda0: 80, Queries: 100}).Run(ctx, cluster, RR(), l)
		}, ""},
		{"RunPoisson at rate 0", 1, "poisson(100q)", func(float64) {
			RunPoisson(cluster, RR(), 0, 100, PoissonHooks{})
		}, ""},
		{"multi-service poisson without Lambda0", 0.5, "poisson(100q)", func(l float64) {
			multi(PoissonService{Queries: 100}).Run(ctx, cluster, RR(), l)
		}, ""},
		{"multi-service horizon poisson without Lambda0", 0.5, "poisson(30s)", func(l float64) {
			multi(PoissonService{Horizon: 30 * time.Second}).Run(ctx, cluster, RR(), l)
		}, ""},
		{"multi-service horizon bursty without Lambda0", 0.5, "bursty(30s", func(l float64) {
			multi(BurstyService{Horizon: 30 * time.Second}).Run(ctx, cluster, RR(), l)
		}, ""},
		{"multi-service wiki at load 0", 0, "wiki-day", func(l float64) {
			w := multi(WikiService{Day: wiki.Config{Compression: 28800}})
			w.ServiceLoads = []float64{0.5, 0}
			w.Run(ctx, cluster, RR(), l)
		}, ""},
		// The day still spans 86ns: checkSpan passes it.
		{"wiki day compressed past its report bin", 1, "wiki-day(compress=1000000000000x)", func(l float64) {
			WikiWorkload{Day: wiki.Config{Compression: 1e12}}.Run(ctx, cluster, RR(), l)
		}, "no report bin"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			panicked := make(chan string, 1)
			go func() {
				defer func() {
					msg, _ := recover().(string)
					panicked <- msg
				}()
				tc.run(tc.load)
			}()
			select {
			case msg := <-panicked:
				reason := cmp.Or(tc.reason, "no arrival span")
				if !strings.Contains(msg, tc.want) || !strings.Contains(msg, reason) {
					t.Errorf("panic %q does not name %q and %q", msg, tc.want, reason)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("still running after 10s: the missing span was not rejected")
			}
		})
	}
}

// Every open-loop cell runs through MultiServiceWorkload.run: a cell
// that calls the engine on its own is a second cell path, with its own
// topology, seeding and accounting to keep equal to the first.
func TestReplayHasOneCaller(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			caller := fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				caller = recv.(*ast.Ident).Name + "." + caller
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "replay" {
						callers = append(callers, fmt.Sprintf("%s (%s)", caller, fset.Position(call.Pos())))
					}
				}
				return true
			})
		}
	}
	if len(callers) != 1 || !strings.HasPrefix(callers[0], "MultiServiceWorkload.run ") {
		t.Fatalf("replay is called from %v; want only MultiServiceWorkload.run", callers)
	}
}

// A cell reads its issue-time accounting off CellOutcome.Timeline, which
// the engine fills for every cell. Only the wiki day keeps a result hook
// of its own: its figures bin the wiki class alone, per class and at
// 10 trace-minutes, which the all-class timeline cannot give.
func TestOnlyWikiDayHooksResults(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var hooks []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if id, ok := lit.Type.(*ast.Ident); !ok || id.Name != "PoissonHooks" {
				return true
			}
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "OnResult" {
						hooks = append(hooks, fset.Position(lit.Pos()).String())
					}
				}
			}
			return true
		})
	}
	if len(hooks) != 1 || !strings.HasPrefix(hooks[0], "figwiki.go:") {
		t.Fatalf("PoissonHooks{OnResult: …} is built at %v; want only the wiki day's, in figwiki.go", hooks)
	}
}
