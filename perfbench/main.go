// Command perfbench measures the serving simulator as a product: the
// host cost of running three fixed campaign workloads, per-layer
// attribution from a separate traced run, and a correctness
// fingerprint of every report.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record file.jsonl]
//	perfbench compare <parent.jsonl> <change.jsonl>
//	perfbench bless
//
// A run starts fresh measurement processes until --seconds have passed
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics. perfbench/notes.md explains
// the workloads, the metrics and how the layers map onto them.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "child":
			fs := flag.NewFlagSet("child", flag.ContinueOnError)
			mode := fs.String("mode", modeRun, "setup, run or traced")
			workload := fs.String("workload", "", "workload name")
			seed := fs.Int64("seed", defaultSeed, "workload seed")
			if err := fs.Parse(args[1:]); err != nil {
				return err
			}
			return runChild(os.Stdout, *mode, *workload, *seed)
		case "compare":
			if len(args) != 3 {
				return fmt.Errorf("usage: perfbench compare <parent.jsonl> <change.jsonl>")
			}
			return compare(os.Stdout, args[1], args[2])
		case "bless":
			return bless()
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", fmt.Sprintf("workload: one of %v", workloadNames))
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d checks the recorded digests; %d is held out)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 20, "measure for this many seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := fs.String("record", "", "append this run's result as one JSON line to the file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	return drive(os.Stdout, *workload, *seed, *seconds, *trace == 1, *record)
}
