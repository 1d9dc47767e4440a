package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rcast/internal/sim"
)

// workerCount resolves a requested worker count before ForEach clamps it
// to the item count: workers <= 0 selects runtime.GOMAXPROCS(0).
func workerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEach calls do(ctx, i) for every i in [0, n) on at most workers
// goroutines pulling indices in ascending order from a shared dispenser.
// workers <= 0 selects runtime.GOMAXPROCS(0), and the count is clamped to
// n; with one worker the calls run inline, in index order. Before each
// call ForEach checks ctx.
// The first error (a failed call, or ctx's error once dispatch sees it
// cancelled) stops further dispatch, cancels the ctx passed to in-flight
// calls, and is returned. ForEach returns nil only when every call ran
// and returned nil.
func ForEach(ctx context.Context, workers, n int, do func(ctx context.Context, i int) error) error {
	workers = min(workerCount(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := do(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() { firstErr = err })
		cancel()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := do(ctx, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Batch is Reps replications of one configuration. Replication i runs
// with seed sim.ReplicationSeed(Cfg.Seed, i); Reps < 1 means 1.
type Batch struct {
	Cfg  Config
	Reps int
}

// BatchWorkers is the worker count RunBatch uses for batches when asked
// for workers, before ForEach clamps it to the number of runs. A Trace
// sink on any batch forces 1, because sinks are not safe for concurrent
// emission.
func BatchWorkers(batches []Batch, workers int) int {
	for _, b := range batches {
		if b.Cfg.Trace != nil {
			return 1
		}
	}
	return workerCount(workers)
}

// RunBatch runs every replication of every batch through ForEach and
// returns one aggregate per batch, in input order. Each replication builds
// a private world from its own derived seed, so runs share no RNG or
// scheduler state and may execute in any order on any number of workers;
// results merge in (batch, replication) order, making every aggregate
// identical for every worker count. The first error, prefixed with the
// failing run's scheme, rate and seed, stops the batch and cancels the
// runs in flight. A cancelled ctx returns an error wrapping
// ErrCanceled and the context's cause, whether it stopped a run mid-flight
// or before the run began.
func RunBatch(ctx context.Context, batches []Batch, workers int) ([]*Aggregate, error) {
	type run struct{ batch, rep int }
	var runs []run
	results := make([][]*Result, len(batches))
	for b, bt := range batches {
		results[b] = make([]*Result, max(bt.Reps, 1))
		for rep := range results[b] {
			runs = append(runs, run{b, rep})
		}
	}
	err := ForEach(ctx, BatchWorkers(batches, workers), len(runs), func(ctx context.Context, i int) error {
		r := runs[i]
		cfg := batches[r.batch].Cfg
		cfg.Seed = sim.ReplicationSeed(cfg.Seed, r.rep)
		res, err := RunContext(ctx, cfg)
		if err != nil {
			return fmt.Errorf("scenario: %v rate=%.1f seed=%d: %w", cfg.Scheme, cfg.PacketRate, cfg.Seed, err)
		}
		results[r.batch][r.rep] = res
		return nil
	})
	if err != nil {
		if err == ctx.Err() { // dispatch saw the cancellation before a run began
			err = fmt.Errorf("scenario: batch stopped before its next run: %w",
				errors.Join(ErrCanceled, context.Cause(ctx)))
		}
		return nil, err
	}
	aggs := make([]*Aggregate, len(batches))
	for b := range batches {
		aggs[b] = AggregateResults(results[b])
	}
	return aggs, nil
}
