package scenario

import (
	"context"
	"errors"
	"fmt"

	"rcast/internal/audit"
	"rcast/internal/core"
	"rcast/internal/mac"
	"rcast/internal/phy"
	"rcast/internal/routing/aodv"
	"rcast/internal/routing/dsr"
	"rcast/internal/sim"
	"rcast/internal/stats"
)

// Result is everything one run measured.
type Result struct {
	Scheme   Scheme
	Nodes    int
	Duration sim.Time
	Seed     int64

	// Energy (paper Figs. 5–7).
	PerNodeJoules  []float64
	TotalJoules    float64
	MeanJoules     float64
	EnergyVariance float64

	// Delivery (Fig. 7).
	Originated   uint64
	Delivered    uint64
	PDR          float64
	AvgDelaySec  float64 // Fig. 8
	DelayP50Sec  float64
	DelayP95Sec  float64
	MeanHops     float64
	EnergyPerBit float64 // J per delivered payload bit

	// Routing overhead (Fig. 8).
	ControlTx          uint64
	ControlByClass     map[core.Class]uint64
	NormalizedOverhead float64

	// Load balance (Fig. 9).
	RoleNumbers []float64
	Forwards    []uint64

	// Network lifetime (finite batteries only; see Config.BatteryJoules).
	// DeathTimes[i] is when node i's battery depleted (0 = survived);
	// FirstDeath is the earliest (0 = none); DeadNodes counts casualties.
	DeathTimes []sim.Time
	FirstDeath sim.Time
	DeadNodes  int

	// Fault injection (zero in unfaulted runs, so no-fault results stay
	// byte-identical). CrashFlushedPackets counts data packets flushed from
	// crashing nodes' buffers (reported as "node-crash" drops).
	NodeCrashes         int
	NodeRecoveries      int
	CrashFlushedPackets uint64

	// Diagnostics.
	Drops    map[string]uint64
	Channel  phy.Stats
	MACTotal mac.Stats
	// DSRTotal / AODVTotal aggregate the per-node routing counters for
	// whichever protocol ran (the other is zero).
	DSRTotal  dsr.Stats
	AODVTotal aodv.Stats

	// Audit results (Config.Audit runs only). AuditViolations holds the
	// recorded invariant breaches (capped; AuditViolationCount is the true
	// total); AuditDupTerminals counts the benign in-flight-duplication
	// diagnostic (see audit.Auditor.DupTerminals).
	AuditViolations     []audit.Violation
	AuditViolationCount int
	AuditDupTerminals   uint64
}

// ErrCanceled is the distinct terminal state of a run stopped mid-flight
// by its context — test with errors.Is. The returned error also wraps the
// context's cause (context.Canceled or context.DeadlineExceeded), so
// callers can tell a user cancel from an expired deadline.
var ErrCanceled = errors.New("scenario: run canceled")

// stopCheckEvery is how many simulation events execute between context
// polls. At the simulator's event rates this bounds the cancellation
// latency well under a wall-clock millisecond while keeping the poll cost
// unmeasurable; an uncancelled context leaves the run byte-identical.
const stopCheckEvery = 4096

// Run executes one simulation described by cfg and returns its metrics.
// With cfg.Audit set, any invariant violation makes Run return an error
// alongside the (still fully populated) result.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the scheduler polls
// ctx every stopCheckEvery events and a cancelled (or deadline-expired)
// context abandons the run promptly, returning an error wrapping both
// ErrCanceled and the context's cause. A context that never cancels
// changes nothing about the run.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Done() != nil {
		w.sched.SetStopCheck(stopCheckEvery, func() bool { return ctx.Err() != nil })
	}
	w.run()
	if w.sched.Stopped() {
		return nil, fmt.Errorf("scenario: run stopped at t=%.1fs (%d events): %w",
			w.sched.Now().Seconds(), w.sched.Executed(),
			errors.Join(ErrCanceled, context.Cause(ctx)))
	}
	res := w.result()
	if w.aud != nil && w.aud.Count() > 0 {
		return res, fmt.Errorf("scenario: audit found %d invariant violation(s); first: %s",
			w.aud.Count(), w.aud.Violations()[0])
	}
	return res, nil
}

// result assembles the Result after the run completes.
func (w *world) result() *Result {
	perNode := make([]float64, len(w.nodes))
	var (
		macTotal  mac.Stats
		dsrTotal  dsr.Stats
		aodvTotal aodv.Stats
	)
	for i, n := range w.nodes {
		perNode[i] = n.meter.Joules()
		if n.router != nil {
			rs := n.router.Stats()
			dsrTotal.RREQSent += rs.RREQSent
			dsrTotal.RREPSent += rs.RREPSent
			dsrTotal.RERRSent += rs.RERRSent
			dsrTotal.DataSent += rs.DataSent
			dsrTotal.Delivered += rs.Delivered
			dsrTotal.Dropped += rs.Dropped
			dsrTotal.Salvages += rs.Salvages
			dsrTotal.CacheReplies += rs.CacheReplies
			dsrTotal.LinkFailures += rs.LinkFailures
			dsrTotal.GossipDropped += rs.GossipDropped
		}
		if n.aodvRouter != nil {
			rs := n.aodvRouter.Stats()
			aodvTotal.RREQSent += rs.RREQSent
			aodvTotal.RREPSent += rs.RREPSent
			aodvTotal.RERRSent += rs.RERRSent
			aodvTotal.HelloSent += rs.HelloSent
			aodvTotal.DataSent += rs.DataSent
			aodvTotal.Delivered += rs.Delivered
			aodvTotal.Dropped += rs.Dropped
			aodvTotal.LinkFailures += rs.LinkFailures
			aodvTotal.Expirations += rs.Expirations
		}
		s := n.link.Stats()
		macTotal.DataTx += s.DataTx
		macTotal.RtsTx += s.RtsTx
		macTotal.CtsTx += s.CtsTx
		macTotal.AckTx += s.AckTx
		macTotal.LinkSuccess += s.LinkSuccess
		macTotal.LinkFailures += s.LinkFailures
		macTotal.BroadcastTx += s.BroadcastTx
		macTotal.Delivered += s.Delivered
		macTotal.Overheard += s.Overheard
		macTotal.Announced += s.Announced
		macTotal.SleptPhases += s.SleptPhases
		macTotal.AwakePhases += s.AwakePhases
	}
	if w.aud != nil {
		// Teardown audit: every meter must have been driven to Duration
		// (run() does that), and the packet census must balance.
		w.aud.CheckMeters(w.cfg.Duration, true)
		w.aud.FinalizePackets(w.cfg.Duration, w.bufferedKeys(), w.col,
			dsrTotal.Delivered+aodvTotal.Delivered, dsrTotal.Dropped+aodvTotal.Dropped,
			map[core.Class]uint64{
				core.ClassRREQ: dsrTotal.RREQSent + aodvTotal.RREQSent,
				// AODV hellos go on the air as unsolicited RREPs.
				core.ClassRREP: dsrTotal.RREPSent + aodvTotal.RREPSent + aodvTotal.HelloSent,
				core.ClassRERR: dsrTotal.RERRSent + aodvTotal.RERRSent,
			})
	}
	total := stats.Sum(perNode)
	ctl, byClass := w.col.ControlTransmissions()
	deaths := make([]sim.Time, len(w.deaths))
	copy(deaths, w.deaths)
	var firstDeath sim.Time
	dead := 0
	for _, d := range deaths {
		if d == 0 {
			continue
		}
		dead++
		if firstDeath == 0 || d < firstDeath {
			firstDeath = d
		}
	}
	res := &Result{
		Scheme:              w.cfg.Scheme,
		Nodes:               w.cfg.Nodes,
		Duration:            w.cfg.Duration,
		Seed:                w.cfg.Seed,
		PerNodeJoules:       perNode,
		TotalJoules:         total,
		MeanJoules:          stats.Mean(perNode),
		EnergyVariance:      stats.Variance(perNode),
		Originated:          w.col.Originated(),
		Delivered:           w.col.Delivered(),
		PDR:                 w.col.PDR(),
		AvgDelaySec:         w.col.AvgDelaySeconds(),
		DelayP50Sec:         w.col.DelayPercentile(50),
		DelayP95Sec:         w.col.DelayPercentile(95),
		MeanHops:            w.col.MeanHops(),
		EnergyPerBit:        w.col.EnergyPerBit(total),
		ControlTx:           ctl,
		ControlByClass:      byClass,
		NormalizedOverhead:  w.col.NormalizedOverhead(),
		RoleNumbers:         w.col.RoleNumbers(),
		Forwards:            w.col.Forwards(),
		DeathTimes:          deaths,
		FirstDeath:          firstDeath,
		DeadNodes:           dead,
		NodeCrashes:         w.crashEvents,
		NodeRecoveries:      w.recoverEvents,
		CrashFlushedPackets: w.crashFlushed,
		Drops:               w.col.Drops(),
		Channel:             w.ch.Stats(),
		MACTotal:            macTotal,
		DSRTotal:            dsrTotal,
		AODVTotal:           aodvTotal,
	}
	if w.aud != nil {
		res.AuditViolations = w.aud.Violations()
		res.AuditViolationCount = w.aud.Count()
		res.AuditDupTerminals = w.aud.DupTerminals()
	}
	return res
}

// Aggregate summarizes replications of the same configuration under
// different seeds.
type Aggregate struct {
	Results []*Result

	PDR                stats.Replications
	TotalJoules        stats.Replications
	EnergyVariance     stats.Replications
	AvgDelaySec        stats.Replications
	EnergyPerBit       stats.Replications
	NormalizedOverhead stats.Replications

	// MeanSortedJoules is the element-wise mean of the ascending-sorted
	// per-node energy curves — the Fig. 5 presentation averaged over
	// replications.
	MeanSortedJoules []float64
}

// AggregateResults folds already-computed replication results, in
// replication order, into an Aggregate. It is the merge half of RunBatch,
// so every caller that merges replications aggregates bit-identically.
func AggregateResults(results []*Result) *Aggregate {
	agg := &Aggregate{}
	var sortedSum []float64
	for _, res := range results {
		agg.Results = append(agg.Results, res)
		agg.PDR.Add(res.PDR)
		agg.TotalJoules.Add(res.TotalJoules)
		agg.EnergyVariance.Add(res.EnergyVariance)
		agg.AvgDelaySec.Add(res.AvgDelaySec)
		agg.EnergyPerBit.Add(res.EnergyPerBit)
		agg.NormalizedOverhead.Add(res.NormalizedOverhead)

		sorted := stats.SortedAscending(res.PerNodeJoules)
		if sortedSum == nil {
			sortedSum = make([]float64, len(sorted))
		}
		for j, v := range sorted {
			sortedSum[j] += v
		}
	}
	agg.MeanSortedJoules = make([]float64, len(sortedSum))
	for j, v := range sortedSum {
		agg.MeanSortedJoules[j] = v / float64(len(results))
	}
	return agg
}

// RunReplications runs cfg reps times with per-replication seeds derived
// by sim.ReplicationSeed and aggregates the headline metrics.
func RunReplications(cfg Config, reps int) (*Aggregate, error) {
	return RunReplicationsContext(context.Background(), cfg, reps, 1)
}

// RunReplicationsContext is RunReplications as a one-batch RunBatch: the
// replications fan across at most workers goroutines under ctx, and the
// aggregate is identical for every worker count.
func RunReplicationsContext(ctx context.Context, cfg Config, reps, workers int) (*Aggregate, error) {
	aggs, err := RunBatch(ctx, []Batch{{Cfg: cfg, Reps: reps}}, workers)
	if err != nil {
		return nil, err
	}
	return aggs[0], nil
}
