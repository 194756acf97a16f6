// Command shapebench is ShapeSearch's end-to-end serving benchmark. It
// starts the REST server in process behind a loopback HTTP listener, drives
// it from a separate load-generator process with four seeded workloads
// (explore, drill, corpus, ingest) through a warm-up, an open-loop phase at
// fixed rates and a closed-loop phase, checks replies against a naive
// reference, and with -trace 1 replays part of each workload in process
// with spans around every layer call to report per-layer metrics. -compare
// judges two result files against the bounds in BENCHMARK.json.
//
// README.md in this directory describes the workloads, the metrics and
// their bounds, and how to run, trace and compare.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == loadgenFlag {
		os.Exit(loadgenMain(os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitOK      = 0
	exitFailed  = 1 // a check failed, or -compare found a regression
	exitUsage   = 2
	exitInvalid = 3 // a validity guard broke: the run measured the harness
)

// benchmarkFile holds the metric definitions and bounds; the command runs
// from the root of the repository, where it lies.
const benchmarkFile = "BENCHMARK.json"

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shapebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = fs.Int64("seed", 1, "seed the workloads' data and requests are generated from")
		seconds = fs.Float64("seconds", 27, "measured seconds per workload: warm-up, open-loop and closed-loop phases")
		trace   = fs.Int("trace", 1, "1: also run the traced replay and end with the per-layer metrics; 0: end with the end-to-end metrics")
		spans   = fs.String("spans", "", "write the traced replay's spans to this file, one JSON line per workload")
		out     = fs.String("out", "", "write every run's results to this JSON file")
		runs    = fs.Int("runs", 1, "repeat the suite this many times with identical settings")
		doCmp   = fs.Bool("compare", false, "compare two result files: shapebench -compare base.json head.json")
		guards  = fs.String("guards", "abort", "abort: repeat a run that breaks a validity guard, up to twice, then exit 3; warn: report it and go on")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *doCmp {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *runs < 1 || *seconds <= 0 || (*guards != "abort" && *guards != "warn") {
		fs.Usage()
		return exitUsage
	}
	var selected []workload
	if *names == "" {
		selected = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := workloadByName(n)
			if !ok {
				fmt.Fprintf(stderr, "shapebench: unknown workload %q\n", n)
				return exitUsage
			}
			selected = append(selected, w)
		}
	}
	// The server runs on one scheduler processor. The machines this
	// benchmark runs on back their cores with shared host CPUs, and a second
	// core that comes and goes from minute to minute moved every metric that
	// used it by up to twice between runs.
	runtime.GOMAXPROCS(1)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, sizes: fullSizes, minSamples: 1000, setups: 11}
	if *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintf(stderr, "shapebench: %v\n", err)
			return exitUsage
		}
		defer f.Close()
		cfg.spans = f
	}

	rf := &resultsFile{Go: runtime.Version(), Nproc: runtime.NumCPU(), Commit: commit(), Seed: *seed, Seconds: *seconds}
	fmt.Fprintf(stdout, "shapebench  seed %d  %s  nproc %d  GOMAXPROCS %d  commit %s\n", *seed, rf.Go, rf.Nproc, runtime.GOMAXPROCS(0), rf.Commit)
	ctx := context.Background()
	// A run that broke a validity guard measured the machine, most often a
	// host that froze this virtual machine for a second, so it is repeated;
	// only a run that breaks one three times is reported invalid. With
	// -guards warn it is reported at once and the command goes on, so that
	// a run takes a known time whatever the host does.
	tries := 3
	if *guards == "warn" {
		tries = 1
	}
	invalid := false
	for i := 0; i < *runs; i++ {
		for _, w := range selected {
			var o *outcome
			for try := 0; try < tries && (o == nil || len(o.Invalid) > 0); try++ {
				if o != nil {
					fmt.Fprintf(stderr, "shapebench: %s: repeating an invalid run: %s\n", w.name, strings.Join(o.Invalid, "; "))
				}
				fmt.Fprintf(stderr, "shapebench: run %d: %s\n", i+1, w.name)
				var err error
				if o, err = runWorkload(ctx, w, cfg); err != nil {
					fmt.Fprintf(stderr, "shapebench: %s: %v\n", w.name, err)
					return exitFailed
				}
				o.Retries = try
			}
			o.Run = i
			printOutcome(stdout, o)
			rf.Runs = append(rf.Runs, o)
			invalid = invalid || len(o.Invalid) > 0
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "shapebench: writing results: %v\n", err)
			return exitFailed
		}
	}
	if invalid {
		fmt.Fprintln(stderr, "shapebench: invalid run: a validity guard broke (see INVALID lines)")
		if *guards == "abort" {
			return exitInvalid
		}
	}
	line, err := resultLine(rf.Runs, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "shapebench: %v\n", err)
		return exitFailed
	}
	fmt.Fprintf(stdout, "%s\n", line)
	for _, o := range rf.Runs {
		if !o.Correct {
			return exitFailed
		}
	}
	return exitOK
}

func runCompare(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "usage: shapebench -compare base.json head.json")
		return exitUsage
	}
	defs, err := readBounds(benchmarkFile)
	var base, head *resultsFile
	if err == nil {
		base, err = readResults(files[0])
	}
	if err == nil {
		head, err = readResults(files[1])
	}
	if err != nil {
		fmt.Fprintf(stderr, "shapebench: %v\n", err)
		return exitUsage
	}
	if compare(stdout, base, head, defs) {
		return exitFailed
	}
	return exitOK
}

// commit returns the VCS revision the binary was built from, if known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
