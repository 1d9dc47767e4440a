package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"rcast/internal/scenario"
	"rcast/internal/trace"
)

// runAll regenerates the whole suite report plus every CSV export with the
// given worker count and returns the concatenated bytes.
func runAll(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	s.SetWorkers(workers)
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return s.WriteSweepCSV(b) },
		func(b *bytes.Buffer) error { return s.WriteFig5CSV(b) },
		func(b *bytes.Buffer) error { return s.WriteFig9CSV(b) },
	} {
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	line, err := s.SummaryLine()
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(line)
	return buf.Bytes()
}

// TestWorkersByteIdentical is the determinism contract of the parallel
// runner: the full report and every CSV must be byte-identical whether the
// simulations ran serially or fanned out across eight workers.
func TestWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice in -short mode")
	}
	serial := runAll(t, 1)
	parallel := runAll(t, 8)
	if !bytes.Equal(serial, parallel) {
		i := 0
		for i < len(serial) && i < len(parallel) && serial[i] == parallel[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		clip := func(b []byte) []byte {
			if hi < len(b) {
				return b[lo:hi]
			}
			return b[lo:]
		}
		t.Fatalf("workers=1 and workers=8 outputs diverge at byte %d:\nserial:   %q\nparallel: %q",
			i, clip(serial), clip(parallel))
	}
}

// smallCfg is a five-node config short enough for pool-plumbing tests.
func smallCfg() scenario.Config {
	cfg := scenario.PaperDefaults()
	cfg.Nodes = 5
	cfg.Connections = 1
	cfg.Duration = scenario.PaperDefaults().Duration / 100
	return cfg
}

// TestRunnerMatchesSerialReplications checks a suite batch fanned across
// workers against the serial scenario.RunReplications path, and that the
// suite counts each of its replications once.
func TestRunnerMatchesSerialReplications(t *testing.T) {
	p := tiny()
	p.Reps = 2
	cfg := scenario.PaperDefaults()
	cfg.Scheme = scenario.SchemeRcast
	cfg.Nodes = p.Nodes
	cfg.FieldW, cfg.FieldH = p.FieldW, p.FieldH
	cfg.Connections = p.Connections
	cfg.Duration = p.Duration
	cfg.PacketRate = p.LowRate
	cfg.Pause = p.PauseMobile
	cfg.Seed = 7

	want, err := scenario.RunReplications(cfg, p.Reps)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(p, nil)
	s.SetWorkers(4)
	aggs, err := s.aggregates([]scenario.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if s.SimRuns() != int64(p.Reps) {
		t.Fatalf("SimRuns = %d, want %d", s.SimRuns(), p.Reps)
	}
	got := aggs[0]
	if len(got.Results) != len(want.Results) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if got.Results[i].Seed != want.Results[i].Seed {
			t.Fatalf("rep %d: seed %d, want %d", i, got.Results[i].Seed, want.Results[i].Seed)
		}
		if got.Results[i].TotalJoules != want.Results[i].TotalJoules {
			t.Fatalf("rep %d: energy %v, want %v", i,
				got.Results[i].TotalJoules, want.Results[i].TotalJoules)
		}
	}
	if got.PDR.Mean() != want.PDR.Mean() ||
		math.Abs(got.TotalJoules.Mean()-want.TotalJoules.Mean()) > 1e-9 {
		t.Fatalf("aggregate mismatch: got PDR %v / %v J, want %v / %v J",
			got.PDR.Mean(), got.TotalJoules.Mean(), want.PDR.Mean(), want.TotalJoules.Mean())
	}
}

// TestRunnerPropagatesError checks that an invalid cell surfaces its
// simulation error from the middle of a parallel batch, and that a failed
// batch adds nothing to SimRuns.
func TestRunnerPropagatesError(t *testing.T) {
	good := smallCfg()
	bad := good
	bad.Nodes = 1 // rejected by config validation
	s := NewSuite(tiny(), nil)
	s.SetWorkers(4)
	if _, err := s.aggregates([]scenario.Config{good, bad, good}); err == nil {
		t.Fatal("invalid cell did not error")
	}
	if s.SimRuns() != 0 {
		t.Fatalf("failed batch counted %d runs", s.SimRuns())
	}
}

// TestRunnerCancelled checks that a cancelled context stops the batch and
// is reported as scenario.ErrCanceled wrapping the context's cause, on
// both the serial and parallel paths.
func TestRunnerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := tiny()
	p.Reps = 2
	for _, workers := range []int{1, 4} {
		s := NewSuite(p, nil)
		s.SetWorkers(workers)
		s.SetContext(ctx)
		_, err := s.aggregates([]scenario.Config{smallCfg()})
		if !errors.Is(err, scenario.ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled wrapping context.Canceled", workers, err)
		}
	}
}

// TestTraceForcesSerial checks that a suite carrying a trace sink (whose
// sinks are not safe for concurrent emission) reports and uses one worker
// whatever SetWorkers asked for, and still runs correctly.
func TestTraceForcesSerial(t *testing.T) {
	p := tiny()
	p.Reps = 2
	s := NewSuite(p, nil)
	s.SetWorkers(8)
	s.SetTrace(discardSink{})
	if got := s.Workers(); got != 1 {
		t.Fatalf("traced suite Workers() = %d, want 1", got)
	}
	aggs, err := s.aggregates([]scenario.Config{smallCfg()})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 1 || len(aggs[0].Results) != 2 {
		t.Fatalf("unexpected shape: %d aggs", len(aggs))
	}
}

type discardSink struct{}

func (discardSink) Emit(trace.Event) {}
