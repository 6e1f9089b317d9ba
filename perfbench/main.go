// Command perfbench is the repository's benchmark. It runs one of four
// workloads (see workloads below and README.md) and prints, as the last line
// of its standard output, one JSON result:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (work_per_s, setup_s,
// peak_rss_mb, ok_frac); with -trace 1 they are the per-layer ones, taken
// from a separate traced run.
//
// Every measurement runs in a fresh child process (this binary with -child)
// that builds its inputs, makes one timed engine call, checks the result and
// prints one JSON record. The parent spawns children one after another until
// -seconds of engine time are measured and reports medians over them.
//
// Usage (from the repository root; perfbench/run.py builds the binary):
//
//	perfbench -workload emu-serve-98k -seed 1 -seconds 20 -trace 0
//	perfbench -steady 5              # steadiness self-check over all workloads
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings shared by every mode.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	revision string
	spans    string
	child    int // child index, or -1 in the parent
	// cpuProfile, in a child, receives a CPU profile of the engine call.
	cpuProfile string
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Int64("seed", 1, "input seed; child i of a run uses inputs seeded from (seed, i)")
	seconds := fs.Float64("seconds", 20, "engine time to measure, summed over child processes")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	scale := fs.String("scale", "full", "input scale: full, or tiny for smoke tests")
	revision := fs.String("revision", "unknown", "source revision recorded in every record")
	spans := fs.String("spans", ".bench_build/spans", "directory traced children write their spans to")
	child := fs.Int("child", -1, "run one measurement as child number N and print its record (internal)")
	cpuProfile := fs.String("cpuprofile", "", "with -child, write a CPU profile of the engine call to this file")
	steady := fs.Int("steady", 0, "steadiness self-check: run every workload N times in alternating order")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintf(stderr, "perfbench: -scale must be full or tiny, got %q\n", *scale)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		tiny:     *scale == "tiny",
		revision: *revision,
		spans:    *spans,
		child:    *child,

		cpuProfile: *cpuProfile,
	}

	var err error
	switch {
	case *steady > 0:
		err = runSteady(o, *steady, stdout, stderr)
	case lookupWorkload(o.workload) == nil:
		err = fmt.Errorf("unknown -workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	case o.child >= 0:
		err = runChild(o, stdout)
	default:
		err = runParent(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
