// Command srlb-trace generates and inspects synthetic Wikipedia access
// traces in the repository's trace format (millisecond timestamps + URL,
// the §VI replay input). A generated file stands in for the WikiBench
// trace the paper replays, and can be fed back into the wiki experiments.
//
// Usage:
//
//	srlb-trace -out day.trace -hours 24
//	srlb-trace -inspect day.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
