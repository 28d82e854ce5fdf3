// Command ftbench runs the reproducible benchmark corpus and writes its
// machine-readable report. The checked-in short-corpus report is the
// baseline whose deterministic columns bench.TestCorpusCountsMatchBaseline
// gates; wall time is measured by perfbench, not here.
//
// Usage:
//
//	ftbench [-short] [-seed 1] [-rev dev] [-out FILE] [-run substr]
//	ftbench corpus [-short] [-seed 1] -dir DIR
//
// The default command runs the corpus (size classes × graph shapes ×
// engines, deterministic for a seed) and writes BENCH_<rev>.json with
// per-case wall time, iterations, final cost, schedulability,
// scheduling passes and allocations, plus corpus-level median and p95
// wall times.
//
// corpus writes each generated problem of the corpus as a JSON document
// into a directory; equal seeds produce byte-identical files, which is
// the reproducibility contract behind report comparability.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"repro/ftdse"
	"repro/ftdse/bench"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "corpus" {
		os.Exit(runCorpusDump(args[1:]))
	}
	os.Exit(runCorpus(args))
}

// runCorpus is the default command: measure the corpus, emit the report.
func runCorpus(args []string) int {
	fs := flag.NewFlagSet("ftbench", flag.ExitOnError)
	var (
		short = fs.Bool("short", false, "run the reduced corpus (small+medium sizes, default+sa engines)")
		seed  = fs.Int64("seed", 1, "master seed of the corpus")
		rev   = fs.String("rev", "dev", "revision label recorded in the report and the default output name")
		out   = fs.String("out", "", "output file (default BENCH_<rev>.json, \"-\" for stdout)")
		run   = fs.String("run", "", "only run cases whose name contains this substring")
		quiet = fs.Bool("quiet", false, "suppress per-case progress on stderr")
	)
	fs.Parse(args)

	cases := bench.FilterCases(bench.Corpus(*seed, *short), *run)
	if len(cases) == 0 {
		fmt.Fprintf(os.Stderr, "ftbench: no corpus case matches -run %q\n", *run)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	progress := os.Stderr
	if *quiet {
		progress = nil
	}
	report, err := bench.RunCorpus(ctx, cases, progress)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		return 2
	}
	report.Rev = *rev
	report.Seed = *seed
	report.Short = *short

	path := *out
	if path == "" {
		path = "BENCH_" + sanitize(*rev) + ".json"
	}
	if path == "-" {
		if err := bench.WriteReport(os.Stdout, report); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			return 2
		}
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		return 2
	}
	werr := bench.WriteReport(f, report)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", werr)
		return 2
	}
	fmt.Fprintf(os.Stderr, "ftbench: %d cases, median %.1fms, p95 %.1fms -> %s\n",
		report.Summary.Cases, report.Summary.MedianWallMS, report.Summary.P95WallMS, path)
	return 0
}

// runCorpusDump writes every generated problem of the corpus to a
// directory, one JSON document per case.
func runCorpusDump(args []string) int {
	fs := flag.NewFlagSet("ftbench corpus", flag.ExitOnError)
	var (
		short = fs.Bool("short", false, "dump the reduced corpus")
		seed  = fs.Int64("seed", 1, "master seed of the corpus")
		dir   = fs.String("dir", "", "output directory (required)")
	)
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "usage: ftbench corpus -dir DIR [-short] [-seed N]")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		return 2
	}
	for _, c := range bench.Corpus(*seed, *short) {
		path := filepath.Join(*dir, sanitize(c.Name)+".json")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			return 2
		}
		werr := ftdse.WriteProblem(f, c.Problem())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", c.Name, werr)
			return 2
		}
	}
	return 0
}

// sanitize makes a label safe as a file-name component.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '-'
	}, s)
}
