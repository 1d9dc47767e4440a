// Command rcast-bench regenerates the paper's tables and figures as text
// series (see DESIGN.md §4 for the experiment index).
//
// Examples:
//
//	rcast-bench                    # quick profile, every figure
//	rcast-bench -profile paper     # full §4.1 scale (tens of minutes)
//	rcast-bench -only fig7,fig8    # selected figures
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"rcast/internal/experiments"
	"rcast/internal/fault"
	"rcast/internal/profiling"
	"rcast/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rcast-bench:", err)
		os.Exit(1)
	}
}

// run executes the command: reports go to stdout, the timing footer and
// profile-write errors to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rcast-bench", flag.ContinueOnError)
	var (
		profileName = fs.String("profile", "quick", "experiment profile: quick or paper")
		only        = fs.String("only", "", "comma-separated subset: "+strings.Join(experiments.Names(), ","))
		reps        = fs.Int("reps", 0, "override replication count (0 = profile default)")
		csvDir      = fs.String("csv", "", "also write sweep/fig5/fig9 series as CSV into this directory")
		workers     = fs.Int("workers", 0, "parallel simulation workers (0 = all CPUs, 1 = serial)")
		auditOn     = fs.Bool("audit", false, "run every simulation under the cross-layer invariant audit")
		faultsName  = fs.String("faults", "", "fault preset applied to every run: "+strings.Join(fault.PresetNames(), ", "))
		traceFile   = fs.String("trace", "", "write packet-lifecycle events for every run as NDJSON to this file (forces serial execution)")
		timeout     = fs.Duration("timeout", 0, "wall-clock budget for the whole suite (0 = unlimited); an expired budget aborts mid-simulation")
		cpuProfile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the suite to this file")
		memProfile  = fs.String("memprofile", "", "write a pprof allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopCPU, err := profiling.StartCPU(*cpuProfile)
	if err != nil {
		return err
	}
	defer stopCPU()
	defer func() {
		if err := profiling.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(stderr, "rcast-bench:", err)
		}
	}()

	var p experiments.Profile
	switch *profileName {
	case "quick":
		p = experiments.Quick()
	case "paper":
		p = experiments.Paper()
	default:
		return fmt.Errorf("unknown profile %q (want quick or paper)", *profileName)
	}
	if *reps > 0 {
		p.Reps = *reps
	}

	s := experiments.NewSuite(p, stdout)
	s.SetWorkers(*workers)
	s.SetAudit(*auditOn)
	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		s.SetContext(ctx)
	}
	if *faultsName != "" {
		plan, err := fault.Preset(*faultsName)
		if err != nil {
			return err
		}
		s.SetFaults(plan)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		// Buffer the NDJSON stream: a full suite emits hundreds of
		// thousands of events and one write syscall per line dominates
		// the tracing overhead otherwise.
		bw := bufio.NewWriterSize(f, 1<<20)
		defer bw.Flush()
		s.SetTrace(trace.NewWriter(bw))
	}
	start := time.Now()
	names := experiments.Names()
	if *only != "" {
		names = strings.Split(strings.ToLower(*only), ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}
	if err := s.Run(names...); err != nil {
		return err
	}
	if *csvDir != "" {
		if err := writeCSVs(s, *csvDir); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	elapsed := time.Since(start)
	// The timing line goes to stderr so stdout stays byte-identical for
	// every worker count. workers= is the count the pool used, so a
	// -trace run reports 1.
	fmt.Fprintf(stderr, "rcast-bench: %d simulation runs in %s (%.2f runs/s, workers=%d)\n",
		s.SimRuns(), elapsed.Round(time.Millisecond),
		float64(s.SimRuns())/elapsed.Seconds(), s.Workers())
	return nil
}

// writeCSVs exports the machine-readable series next to the text report.
func writeCSVs(s *experiments.Suite, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	exports := []struct {
		name  string
		write func(w io.Writer) error
	}{
		{name: "sweep.csv", write: s.WriteSweepCSV},
		{name: "fig5.csv", write: s.WriteFig5CSV},
		{name: "fig9.csv", write: s.WriteFig9CSV},
	}
	for _, e := range exports {
		f, err := os.Create(filepath.Join(dir, e.name))
		if err != nil {
			return err
		}
		if err := e.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
