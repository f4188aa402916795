// Command srlb-trace generates and inspects synthetic Wikipedia access
// traces in the repository's trace format (millisecond timestamps +
// URL). A generated file stands in for the WikiBench trace the paper's
// §VI replays. No command reads a trace file back: the experiments
// (WikiService, WikiWorkload) draw the same synthetic day from
// internal/wiki's stream.
//
// Usage:
//
//	srlb-trace -out day.trace -hours 24
//	srlb-trace -inspect day.trace
//
// A day it cannot synthesize (a negative or non-finite number, -compress
// below 1, -hours past what a time.Duration holds) is one line on stderr
// and exit 2, before -out is created.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"srlb/internal/trace"
	"srlb/internal/wiki"
)

func main() {
	var (
		out      = flag.String("out", "", "write a synthetic trace to this file")
		inspect  = flag.String("inspect", "", "print statistics for an existing trace file")
		hours    = flag.Float64("hours", 24, "trace length in hours")
		seed     = flag.Uint64("seed", 1, "RNG seed")
		scale    = flag.Float64("scale", 0.5, "replay scale (the paper replays 50% of peak)")
		peak     = flag.Float64("peak", 250, "full-trace peak wiki-page rate (q/s)")
		trough   = flag.Float64("trough", 125, "full-trace trough wiki-page rate (q/s)")
		compress = flag.Float64("compress", 1, "time compression factor")
	)
	flag.Parse()

	switch {
	case *out != "":
		if err := checkDay(); err != nil {
			fmt.Fprintf(os.Stderr, "srlb-trace: %v\n", err)
			os.Exit(2)
		}
		cfg := wiki.Config{
			Seed:           *seed,
			Horizon:        time.Duration(*hours * float64(time.Hour)),
			ReplayScale:    *scale,
			FullPeakRate:   *peak,
			FullTroughRate: *trough,
			Compression:    *compress,
		}
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		wikiN, statN, err := synthesize(f, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d wiki-page + %d static requests over %v (virtual %v)\n",
			*out, wikiN, statN, cfg.Horizon, cfg.VirtualHorizon())

	case *inspect != "":
		f, err := os.Open(*inspect)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		inspectTrace(f)

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkDay rejects flag values no synthetic day can be built from, before
// -out is created: a number that is negative or not finite, a -compress
// factor below 1, and -hours beyond what a time.Duration holds. Zero
// keeps meaning wiki.Config's default.
func checkDay() error {
	for _, name := range []string{"hours", "scale", "peak", "trough", "compress"} {
		value := flag.Lookup(name).Value.String()
		v, _ := strconv.ParseFloat(value, 64)
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			return fmt.Errorf("-%s must be a finite number, not negative (got %s)", name, value)
		case name == "compress" && v != 0 && v < 1:
			return fmt.Errorf("-compress is a compression factor, at least 1 (got %s)", value)
		case name == "hours" && v*float64(time.Hour) >= math.MaxInt64:
			return fmt.Errorf("-hours %s is longer than a time.Duration holds (%.0f hours)", value, float64(math.MaxInt64)/float64(time.Hour))
		}
	}
	return nil
}

// synthesize writes the synthetic day to f and closes it: the trace is
// only written once Close has succeeded.
func synthesize(f io.WriteCloser, cfg wiki.Config) (wikiN, statN int, err error) {
	wikiN, statN, err = wiki.Synthesize(cfg, trace.NewWriter(f))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return wikiN, statN, err
}

func inspectTrace(r io.Reader) {
	tr := trace.NewReader(r)
	var total, wikiPages int
	var first, last time.Duration
	perHour := map[int]int{}
	for {
		e, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		if total == 0 {
			first = e.At
		}
		last = e.At
		total++
		if e.IsWikiPage() {
			wikiPages++
			perHour[int(e.At.Hours())]++
		}
	}
	if total == 0 {
		fmt.Println("empty trace")
		return
	}
	span := (last - first).Seconds()
	fmt.Printf("entries   : %d (%d wiki pages, %d static)\n", total, wikiPages, total-wikiPages)
	fmt.Printf("span      : %v -> %v (%.1fs)\n", first, last, span)
	if span > 0 {
		fmt.Printf("mean rate : %.1f q/s overall, %.1f wiki-pages/s\n",
			float64(total)/span, float64(wikiPages)/span)
	}
	fmt.Println("wiki-page rate by hour:")
	for h := 0; h < 24; h++ {
		if n, ok := perHour[h]; ok {
			fmt.Printf("  %02d:00  %6.1f q/s\n", h, float64(n)/3600)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "srlb-trace: %v\n", err)
	os.Exit(1)
}
