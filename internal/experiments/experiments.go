// Package experiments regenerates every table and figure of the paper's
// evaluation section (§4), plus the ablations DESIGN.md calls out. Each
// experiment declares its simulation cells as plain scenario.Configs and a
// report that reads their aggregates in cell order, prints the same
// rows/series the paper reports, and returns the underlying data for
// programmatic checks.
//
// A suite resolves every cell through one cache keyed by the cell's
// canonical key, so experiments share simulations: Figs. 6, 7 and 8 all
// derive from one rate sweep, Figs. 5 and 9 reuse its corner points, and
// each ablation's baseline row is a figure's cell.
package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"rcast/internal/fault"
	"rcast/internal/scenario"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// Profile scales the experiment suite. Paper() is the §4.1 setup; Quick()
// is a reduced profile for CI and `go test -bench`.
type Profile struct {
	Name           string
	Nodes          int
	FieldW, FieldH float64
	Connections    int
	Duration       sim.Time
	Reps           int
	// Rates is the packet-rate sweep for Figs. 6–8; it must contain
	// LowRate and HighRate, the corner points used by Figs. 5 and 9.
	Rates             []float64
	LowRate, HighRate float64
	// PauseMobile is the mobile pause time; the static scenario uses
	// pause = Duration, as in the paper.
	PauseMobile sim.Time
	BaseSeed    int64
}

// Paper returns the full-scale profile of §4.1. The paper averages ten
// replications; three keep the suite under an hour while stabilizing the
// series (see EXPERIMENTS.md).
func Paper() Profile {
	return Profile{
		Name:        "paper",
		Nodes:       100,
		FieldW:      1500,
		FieldH:      300,
		Connections: 20,
		Duration:    1125 * sim.Second,
		Reps:        3,
		Rates:       []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0},
		LowRate:     0.4,
		HighRate:    2.0,
		PauseMobile: 600 * sim.Second,
		BaseSeed:    1,
	}
}

// Quick returns a reduced profile (≈ 50× faster) preserving the paper's
// qualitative shape: fewer nodes on a proportionally smaller field, shorter
// runs, a coarser rate sweep, one replication.
func Quick() Profile {
	return Profile{
		Name:        "quick",
		Nodes:       40,
		FieldW:      900,
		FieldH:      300,
		Connections: 8,
		Duration:    150 * sim.Second,
		Reps:        1,
		Rates:       []float64{0.2, 0.4, 1.0, 2.0},
		LowRate:     0.4,
		HighRate:    2.0,
		PauseMobile: 75 * sim.Second,
		BaseSeed:    1,
	}
}

// figureSchemes are the three schemes of the paper's figures.
var figureSchemes = []scenario.Scheme{
	scenario.SchemeAlwaysOn,
	scenario.SchemeODPM,
	scenario.SchemeRcast,
}

// Suite runs and caches the simulations behind all generators. Simulation
// cells fan out through scenario.RunBatch; the reports and series a suite
// produces are byte-identical for every worker count.
type Suite struct {
	p         Profile
	out       io.Writer
	cache     map[string]*scenario.Aggregate // by Config.CanonicalKey(p.Reps)
	workers   int
	audit     bool
	faults    *fault.Plan
	traceSink trace.Sink
	ctx       context.Context
	simRuns   int64
}

// NewSuite creates a suite writing its reports to out. Runs fan out across
// runtime.GOMAXPROCS(0) workers by default; see SetWorkers.
func NewSuite(p Profile, out io.Writer) *Suite {
	if out == nil {
		out = io.Discard
	}
	return &Suite{p: p, out: out, cache: make(map[string]*scenario.Aggregate)}
}

// SetWorkers bounds the concurrency of the suite's simulation runs:
// n <= 0 selects runtime.GOMAXPROCS(0), 1 reproduces the serial path.
// Every setting produces identical output.
func (s *Suite) SetWorkers(n int) { s.workers = n }

// SetAudit turns on the cross-layer invariant audit (scenario.Config.Audit)
// for every simulation the suite runs. Any violation aborts the suite with
// an error naming the first breach. Metrics are unchanged either way: the
// audit only observes.
func (s *Suite) SetAudit(on bool) { s.audit = on }

// SetFaults installs a fault plan (see internal/fault) applied to every
// simulation the suite builds — figures and ablations alike, except the
// fault ablation itself, whose cells carry their own per-variant plans.
// Cached aggregates from a previous plan would be stale, so the cache is
// cleared; call SetFaults before running any generator.
func (s *Suite) SetFaults(plan *fault.Plan) {
	s.faults = plan
	s.cache = make(map[string]*scenario.Aggregate)
}

// SetTrace installs a packet-lifecycle trace sink (scenario.Config.Trace)
// on every simulation the suite runs. A non-nil sink forces the batches
// serial (sinks are not safe for concurrent emission), so expect the
// suite to slow accordingly. Cached aggregates were produced without the
// sink's events, so the cache is cleared; call SetTrace before running
// any generator.
func (s *Suite) SetTrace(sink trace.Sink) {
	s.traceSink = sink
	s.cache = make(map[string]*scenario.Aggregate)
}

// SetContext installs a cancellation context for the suite's simulation
// runs; cancelling it stops the runs in flight and makes the in-progress
// generator return its error.
func (s *Suite) SetContext(ctx context.Context) { s.ctx = ctx }

// Runs returns how many distinct simulation batches (cells) have been
// executed.
func (s *Suite) Runs() int { return len(s.cache) }

// SimRuns returns how many individual simulations have completed: each
// replication of each distinct cell counts once.
func (s *Suite) SimRuns() int64 { return s.simRuns }

// Workers reports how many workers the suite's batches run on: the
// SetWorkers count resolved by scenario.BatchWorkers, so a trace sink
// reports 1.
func (s *Suite) Workers() int {
	return scenario.BatchWorkers([]scenario.Batch{{Cfg: scenario.Config{Trace: s.traceSink}}}, s.workers)
}

func (s *Suite) context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// cell returns the suite's configuration for one figure point: the
// profile's scale plus the suite's fault plan and audit flag. It carries
// no trace sink, so it has a canonical key; experiments vary it further.
func (s *Suite) cell(sch scenario.Scheme, rate float64, static bool) scenario.Config {
	cfg := scenario.PaperDefaults()
	cfg.Scheme = sch
	cfg.Nodes = s.p.Nodes
	cfg.FieldW = s.p.FieldW
	cfg.FieldH = s.p.FieldH
	cfg.Connections = s.p.Connections
	cfg.Duration = s.p.Duration
	cfg.PacketRate = rate
	cfg.Seed = s.p.BaseSeed
	if static {
		cfg.Pause = s.p.Duration
	} else {
		cfg.Pause = s.p.PauseMobile
	}
	cfg.Audit = s.audit
	cfg.Faults = s.faults
	return cfg
}

// schemeCells returns one cell per scheme at the same operating point.
func (s *Suite) schemeCells(schemes []scenario.Scheme, rate float64, static bool) []scenario.Config {
	cells := make([]scenario.Config, len(schemes))
	for i, sch := range schemes {
		cells[i] = s.cell(sch, rate, static)
	}
	return cells
}

// cornerRates are the low and high packet rates of Figs. 5 and 9.
func (s *Suite) cornerRates() []float64 { return []float64{s.p.LowRate, s.p.HighRate} }

// aggregates resolves cells to their aggregates, in cell order, through
// the suite cache keyed by Config.CanonicalKey(Reps). Keys are taken
// before the suite's trace sink is attached; a cell without one is an
// error. Every missing cell runs once, in first-occurrence order, in one
// scenario.RunBatch, and its replications are counted once it succeeds.
func (s *Suite) aggregates(cells []scenario.Config) ([]*scenario.Aggregate, error) {
	keys := make([]string, len(cells))
	var missing []scenario.Batch
	var missingKeys []string
	for i, cfg := range cells {
		k, err := cfg.CanonicalKey(s.p.Reps)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell %d: %w", i, err)
		}
		keys[i] = k
		if _, ok := s.cache[k]; ok || slices.Contains(missingKeys, k) {
			continue
		}
		cfg.Trace = s.traceSink
		missing = append(missing, scenario.Batch{Cfg: cfg, Reps: s.p.Reps})
		missingKeys = append(missingKeys, k)
	}
	if len(missing) > 0 {
		aggs, err := scenario.RunBatch(s.context(), missing, s.workers)
		if err != nil {
			return nil, err
		}
		for i, k := range missingKeys {
			s.cache[k] = aggs[i]
		}
		s.simRuns += int64(len(missing) * max(s.p.Reps, 1))
	}
	out := make([]*scenario.Aggregate, len(cells))
	for i, k := range keys {
		out[i] = s.cache[k]
	}
	return out, nil
}

// generate resolves one experiment's cells and hands their aggregates to
// its report.
func generate[T any](s *Suite, cells func(*Suite) []scenario.Config, report func(*Suite, []*scenario.Aggregate) T) (T, error) {
	aggs, err := s.aggregates(cells(s))
	if err != nil {
		var zero T
		return zero, err
	}
	return report(s, aggs), nil
}

// experiment is one registered table or figure: the cells it reads and
// the report that prints their aggregates.
type experiment struct {
	name   string
	cells  func(*Suite) []scenario.Config
	report func(*Suite, []*scenario.Aggregate)
}

func entry[T any](name string, cells func(*Suite) []scenario.Config, report func(*Suite, []*scenario.Aggregate) T) experiment {
	return experiment{name: name, cells: cells, report: func(s *Suite, aggs []*scenario.Aggregate) { report(s, aggs) }}
}

// registry lists every experiment in report order. All, Run and
// rcast-bench's -only flag all read it.
var registry = []experiment{
	entry("table1", (*Suite).table1Cells, (*Suite).table1),
	entry("fig5", (*Suite).fig5Cells, (*Suite).fig5),
	entry("fig6", (*Suite).sweepCells, (*Suite).fig6),
	entry("fig7", (*Suite).sweepCells, (*Suite).fig7),
	entry("fig8", (*Suite).sweepCells, (*Suite).fig8),
	entry("fig9", (*Suite).fig9Cells, (*Suite).fig9),
	entry("a1", (*Suite).policyCells, (*Suite).policies),
	entry("a2", (*Suite).levelCells, (*Suite).levels),
	entry("a3", (*Suite).gossipCells, (*Suite).gossip),
	entry("a4", (*Suite).cacheCells, (*Suite).cacheStrategies),
	entry("a5", (*Suite).lifetimeCells, (*Suite).lifetime),
	entry("a6", (*Suite).routingCells, (*Suite).routing),
	entry("a7", (*Suite).atimCells, (*Suite).atim),
	entry("a8", (*Suite).faultCells, (*Suite).faultsReport),
	entry("a9", (*Suite).channelCells, (*Suite).channels),
	entry("a10", (*Suite).txPowerCells, (*Suite).txPower),
}

// Names lists the registered experiments in report order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Run reports the named experiments in the order given. The union of
// their cells is resolved first, in one batch, so the worker pool sees
// the whole selection's parallelism and every report prints from the
// cache.
func (s *Suite) Run(names ...string) error {
	exps := make([]experiment, len(names))
	cells := make([][]scenario.Config, len(names))
	var all []scenario.Config
	for i, name := range names {
		j := slices.IndexFunc(registry, func(e experiment) bool { return e.name == name })
		if j < 0 {
			return fmt.Errorf("experiments: unknown figure %q (want one of %s)", name, strings.Join(Names(), ","))
		}
		exps[i], cells[i] = registry[j], registry[j].cells(s)
		all = append(all, cells[i]...)
	}
	aggs, err := s.aggregates(all)
	if err != nil {
		return err
	}
	for i, e := range exps {
		e.report(s, aggs[:len(cells[i])])
		aggs = aggs[len(cells[i]):]
	}
	return nil
}

// All regenerates every table and figure in order.
func (s *Suite) All() error { return s.Run(Names()...) }

func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.out, format, args...)
}

func pauseLabel(static bool) string {
	if static {
		return "Tpause=static"
	}
	return "Tpause=mobile"
}
