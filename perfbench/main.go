// Command perfbench is the repository's benchmark: it measures matchd
// as shipped, end to end over its wire protocol, and — in a separate
// traced run — layer by layer in process. Run it through run.sh, which
// builds matchd and perfbench from the checkout first:
//
//	bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	warm-mix         planted personals, so every session stays warm
//	fresh-personals  every request a never-sent personal with hostile letters
//
// Each run alternates reads sent one at a time, a closed-loop
// saturation chunk and full-repository admin PUTs sent one at a time.
//
// With --trace 0 the last output line carries the end-to-end metrics,
// with --trace 1 the per-layer metrics of the traced run. Either way
// every served answer is checked, and the run fails (exit 1, correct
// false) if any answer is wrong. --workload all runs each in turn,
// each report ending in its own result line.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a completed run whose checks failed; its result
// line is already printed.
var errIncorrect = errors.New("answer or state checks failed, or the run was invalid")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		workloadName = fs.String("workload", "", fmt.Sprintf("workload: one of %v, or all (each in turn)", workloadNames))
		seed         = fs.Uint64("seed", 1, "workload seed")
		seconds      = fs.Int("seconds", 25, "measured seconds per run")
		trace        = fs.Int("trace", 0, "0: end-to-end run against matchd; 1: traced in-process run")
		root         = fs.String("root", ".", "checkout root")
		matchdBin    = fs.String("matchd", "", "prebuilt matchd binary (end-to-end run)")
		work         = fs.String("work", ".bench_build/work", "scratch directory for corpora, stores and traces")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d < 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if *trace == 0 && *matchdBin == "" {
		return errors.New("--matchd is required for the end-to-end run")
	}
	names := []string{*workloadName}
	if *workloadName == "all" {
		names = workloadNames
	}
	env, err := environment(*root, *seed, *trace)
	if err != nil {
		return err
	}
	failed := false
	for _, name := range names {
		r, err := runOne(name, *seed, *seconds, *trace, *matchdBin, *work)
		if err != nil {
			return err
		}
		r.Lines = append([]string{"env: " + env}, r.Lines...)
		if err := r.write(out); err != nil {
			return err
		}
		failed = failed || !r.correct()
	}
	if failed {
		return errIncorrect
	}
	return nil
}

// runOne generates and runs one workload, end to end or traced.
func runOne(name string, seed uint64, seconds, trace int, matchdBin, work string) (*result, error) {
	w, err := newWorkload(name, seed, defaultParams(name, seconds, runtime.NumCPU()))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	defer removeAll(dir)
	if trace == 1 {
		return runTraced(context.Background(), w, dir, filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", w.Name, seed)))
	}
	return runE2E(context.Background(), w, matchdBin, dir)
}
