package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rcast/internal/sim"
	"rcast/internal/trace"
)

// TestForEachSerialOrder pins the workers=1 contract: every call runs
// inline, in index order, on the caller's goroutine.
func TestForEachSerialOrder(t *testing.T) {
	var got []int
	err := ForEach(context.Background(), 1, 6, func(_ context.Context, i int) error {
		got = append(got, i) // unsynchronised: -race flags any concurrency
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order = %v, want 0..5", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("ran %d calls, want 6", len(got))
	}
}

// TestForEachRunsEveryIndexOnce checks the parallel path covers [0, n)
// exactly once.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	if err := ForEach(context.Background(), 4, n, func(_ context.Context, i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if c := hits[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestForEachFirstErrorCancelsInFlight checks that the first error is the
// one returned, that it cancels the ctx of a sibling blocked in flight, and
// that nothing is dispatched after it.
func TestForEachFirstErrorCancelsInFlight(t *testing.T) {
	boom := errors.New("boom")
	blocked := make(chan struct{})
	var sawCancel atomic.Bool
	var ran atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(context.Background(), 2, 10, func(ctx context.Context, i int) error {
			ran.Add(1)
			switch i {
			case 0:
				close(blocked)
				<-ctx.Done() // only the sibling's failure can release this
				sawCancel.Store(true)
				return ctx.Err()
			case 1:
				<-blocked
				return boom
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != boom {
			t.Fatalf("err = %v, want the first error %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight sibling was never cancelled")
	}
	if !sawCancel.Load() {
		t.Fatal("blocked sibling did not observe a cancelled ctx")
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d calls ran, want 2: dispatch continued after the first error", n)
	}
}

// TestForEachCancelledContextStopsDispatch checks a cancelled ctx returns
// its error without running anything, on both paths, and that cancelling
// mid-batch stops further dispatch.
func TestForEachCancelledContextStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		var ran atomic.Int32
		err := ForEach(ctx, workers, 5, func(context.Context, int) error {
			ran.Add(1)
			return nil
		})
		if err != context.Canceled || ran.Load() != 0 {
			t.Fatalf("workers=%d: err = %v after %d calls, want context.Canceled after 0",
				workers, err, ran.Load())
		}
	}

	for _, workers := range []int{1, 3} {
		midCtx, stop := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(midCtx, workers, 50, func(context.Context, int) error {
			if ran.Add(1) == 2 {
				stop()
			}
			return nil
		})
		stop()
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 50 {
			t.Fatalf("workers=%d: all %d calls ran despite cancellation", workers, n)
		}
	}
}

// TestForEachClampsWorkers checks workers <= 0 selects GOMAXPROCS, and that
// the pool never runs more goroutines than items.
func TestForEachClampsWorkers(t *testing.T) {
	if got := workerCount(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := workerCount(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("workerCount(-3) = %d, want GOMAXPROCS", got)
	}
	if got := workerCount(5); got != 5 {
		t.Fatalf("workerCount(5) = %d", got)
	}

	// With 3 items and 16 workers, at most 3 calls may be in flight: hold
	// each call until three have arrived, then check no fourth ever does.
	const n = 3
	var (
		mu      sync.Mutex
		active  int
		peak    int
		arrived = make(chan struct{})
		once    sync.Once
	)
	err := ForEach(context.Background(), 16, n, func(context.Context, int) error {
		mu.Lock()
		active++
		peak = max(peak, active)
		if active == n {
			once.Do(func() { close(arrived) })
		}
		mu.Unlock()
		<-arrived
		mu.Lock()
		active--
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak != n {
		t.Fatalf("peak concurrency %d, want %d", peak, n)
	}
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Fatal("called with n = 0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchMatchesPerBatchReplications checks a multi-batch RunBatch
// against one RunReplications per batch: same seeds, same aggregates,
// whatever the worker count.
func TestRunBatchMatchesPerBatchReplications(t *testing.T) {
	a := quickConfig(SchemeRcast)
	a.Duration = 20 * sim.Second
	b := quickConfig(SchemeODPM)
	b.Duration = 20 * sim.Second
	b.Seed = 9
	batches := []Batch{{Cfg: a, Reps: 2}, {Cfg: b}}
	for _, workers := range []int{1, 3} {
		aggs, err := RunBatch(context.Background(), batches, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, bt := range batches {
			want, err := RunReplications(bt.Cfg, bt.Reps)
			if err != nil {
				t.Fatal(err)
			}
			got := aggs[i]
			if len(got.Results) != len(want.Results) {
				t.Fatalf("workers=%d batch %d: %d results, want %d", workers, i, len(got.Results), len(want.Results))
			}
			for r := range want.Results {
				assertResultsEqual(t, want.Results[r], got.Results[r])
			}
		}
	}
}

// TestBatchWorkersTraceForcesSerial pins the one serial-forcing rule: a
// Trace sink on any batch resolves the pool to one worker.
func TestBatchWorkersTraceForcesSerial(t *testing.T) {
	plain := Batch{Cfg: quickConfig(SchemeRcast)}
	traced := plain
	traced.Cfg.Trace = trace.Nop{}
	if got := BatchWorkers([]Batch{plain, plain}, 8); got != 8 {
		t.Fatalf("untraced BatchWorkers = %d, want 8", got)
	}
	if got := BatchWorkers([]Batch{plain, traced}, 8); got != 1 {
		t.Fatalf("traced BatchWorkers = %d, want 1", got)
	}
	if got := BatchWorkers([]Batch{plain}, 0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("BatchWorkers(0) = %d, want GOMAXPROCS", got)
	}
}

// TestRunBatchRandomChannelsDeterministic runs shadowing and fading cells
// through RunBatch at two workers and requires results byte-identical to
// one worker. A propagation model memoizes per-link values, so a model
// shared between runs would also show up here as a data race under -race.
func TestRunBatchRandomChannelsDeterministic(t *testing.T) {
	var batches []Batch
	for _, ch := range []string{"shadowing", "fading"} {
		for _, mob := range []string{"waypoint", "group"} {
			cfg := quickConfig(SchemeRcast)
			cfg.Duration = 20 * sim.Second
			cfg.Channel, cfg.ShadowSigmaDB, cfg.Mobility = ch, 6, mob
			batches = append(batches, Batch{Cfg: cfg, Reps: 2})
		}
	}
	render := func(workers int) string {
		aggs, err := RunBatch(context.Background(), batches, workers)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, agg := range aggs {
			for _, r := range agg.Results {
				fmt.Fprintf(&sb, "%+v\n", *r)
			}
		}
		return sb.String()
	}
	// Parallel first: a shared model's memo would then be filled by two
	// goroutines at once rather than read after a serial pass filled it.
	parallel := render(2)
	if serial := render(1); parallel != serial {
		t.Fatalf("workers=2 output differs from workers=1:\n%s\nvs\n%s", parallel, serial)
	}
}
