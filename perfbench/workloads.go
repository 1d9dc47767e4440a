package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"rcast/internal/experiments"
	"rcast/internal/scenario"
	"rcast/internal/sim"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"dense_400", "quick_suite", "serve_jobs"}

// roundResult is what one timed round of a workload produced. A round is
// one cell (dense_400), one suite (quick_suite) or one batch of jobs sent
// to a fresh server (serve_jobs).
type roundResult struct {
	wall       time.Duration
	simSeconds float64 // simulated seconds computed
	simRuns    int     // simulation runs executed
	requests   int     // user requests answered
	missMs     []float64
	hitMs      []float64
	// serve_jobs only, from job status timestamps and outcomes.
	queueWaitMs []float64
	runMs       []float64
	hits        int
	coalesced   int
	rejected    int

	attempted, failed int
	last              *scenario.Result // dense_400: the cell's result
}

// workload is one benchmark workload. setUp prepares a round's inputs (and
// for serve_jobs a fresh server); only round.run is timed as work.
type workload interface {
	setUp() (round, error)
	// rep is the cell whose shape (nodes, field, speed, range, channel,
	// seed) parameterizes the layer drivers.
	rep() scenario.Config
	// workers is the concurrency the workload runs at.
	workers() int
	// verify runs after the timed rounds: output checks too slow to sit in
	// a round. It returns the checks made and how many failed.
	verify() (attempted, failed int)
}

type round interface {
	run(tr *tracer) roundResult
	close() error
}

// size selects full benchmark inputs or the toy inputs the benchmark's own
// test uses.
type size int

const (
	full size = iota
	toy
)

// dense400Config is the scaling cell: 400 nodes at paper density
// (3000×600 m, 250 m range), 20 CBR connections at 0.4 pkt/s of 512 B,
// random waypoint up to 20 m/s with 30 s pauses, disk channel, 60 s.
func dense400Config(simSeed int64, sz size) scenario.Config {
	cfg := scenario.PaperDefaults()
	cfg.Scheme = scenario.SchemeRcast
	cfg.Nodes = 400
	cfg.FieldW, cfg.FieldH = 3000, 600
	cfg.Pause = 30 * sim.Second
	cfg.Duration = 60 * sim.Second
	cfg.Seed = simSeed
	if sz == toy {
		cfg.Nodes, cfg.FieldW, cfg.FieldH = 40, 900, 300
		cfg.Connections = 5
		cfg.Duration = 10 * sim.Second
	}
	return cfg
}

// quickProfile is experiments.Quick() with its base seed, or a toy
// profile of the same shape.
func quickProfile(simSeed int64, sz size) experiments.Profile {
	p := experiments.Quick()
	p.BaseSeed = simSeed
	if sz == toy {
		p.Nodes, p.FieldW, p.FieldH = 12, 500, 200
		p.Connections = 3
		p.Duration = 8 * sim.Second
		p.PauseMobile = 4 * sim.Second
		p.Rates = []float64{p.LowRate, p.HighRate}
	}
	return p
}

// cellWorkload is dense_400: one Rcast/DSR cell per round, run serially
// through scenario.Run.
type cellWorkload struct {
	simSeed int64
	sz      size
	chk     *checker
}

func (w *cellWorkload) rep() scenario.Config { return dense400Config(w.simSeed, w.sz) }
func (w *cellWorkload) workers() int         { return 1 }
func (w *cellWorkload) verify() (int, int)   { return 0, 0 }

func (w *cellWorkload) setUp() (round, error) {
	cfg := dense400Config(w.simSeed, w.sz)
	// Keying the input is the set-up a caller pays before running it.
	if _, err := cfg.CanonicalKey(1); err != nil {
		return nil, err
	}
	return &cellRound{cfg: cfg, chk: w.chk}, nil
}

type cellRound struct {
	cfg scenario.Config
	chk *checker
}

func (r *cellRound) close() error { return nil }

func (r *cellRound) run(tr *tracer) roundResult {
	_, end := tr.begin("scenario.Run", 0, "")
	start := time.Now()
	res, err := scenario.Run(r.cfg)
	wall := time.Since(start)
	end()
	out := roundResult{
		wall:       wall,
		simSeconds: r.cfg.Duration.Seconds(),
		simRuns:    1,
		requests:   1,
		missMs:     []float64{ms(wall)},
		attempted:  1,
		last:       res,
	}
	if err != nil {
		r.chk.fail("scenario.Run: %v", err)
		out.failed = 1
	} else if !r.chk.check(resultParts(res)) {
		out.failed = 1
	}
	return out
}

// suiteWorkload is quick_suite: the whole quick experiment suite per
// round, fanned out over nproc workers.
type suiteWorkload struct {
	simSeed int64
	sz      size
	chk     *checker
}

func (w *suiteWorkload) workers() int       { return runtime.GOMAXPROCS(0) }
func (w *suiteWorkload) verify() (int, int) { return 0, 0 }

// rep is the suite's most expensive cell shape: an A9 Rayleigh-fading
// Rcast cell at the low rate, mobile.
func (w *suiteWorkload) rep() scenario.Config {
	p := quickProfile(w.simSeed, w.sz)
	cfg := scenario.PaperDefaults()
	cfg.Nodes, cfg.FieldW, cfg.FieldH = p.Nodes, p.FieldW, p.FieldH
	cfg.Connections, cfg.PacketRate = p.Connections, p.LowRate
	cfg.Duration, cfg.Pause = p.Duration, p.PauseMobile
	cfg.Seed = p.BaseSeed
	cfg.Channel = "fading"
	return cfg
}

func (w *suiteWorkload) setUp() (round, error) {
	r := &suiteRound{p: quickProfile(w.simSeed, w.sz), chk: w.chk}
	r.s = experiments.NewSuite(r.p, &r.report)
	r.s.SetWorkers(w.workers())
	return r, nil
}

type suiteRound struct {
	p      experiments.Profile
	s      *experiments.Suite
	report bytes.Buffer
	chk    *checker
}

func (r *suiteRound) close() error { return nil }

func (r *suiteRound) run(tr *tracer) roundResult {
	s := r.s
	_, end := tr.begin("experiments.Suite.All", 0, "")
	start := time.Now()
	err := s.All()
	wall := time.Since(start)
	end()
	out := roundResult{
		wall:       wall,
		simSeconds: float64(s.SimRuns()) * r.p.Duration.Seconds(),
		simRuns:    int(s.SimRuns()),
		requests:   1,
		missMs:     []float64{ms(wall)},
		attempted:  1,
	}
	if err != nil {
		r.chk.fail("Suite.All: %v", err)
		out.failed = 1
	} else if !r.chk.check(reportParts(r.report.Bytes())) {
		out.failed = 1
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newWorkload builds the named workload. simSeed, when non-zero, replaces
// the pinned simulation seed; seed orders serve_jobs' job stream.
func newWorkload(name string, seed, simSeed int64, sz size, chk *checker) (workload, error) {
	if simSeed == 0 {
		simSeed = pinnedSimSeed
	}
	switch name {
	case "dense_400":
		return &cellWorkload{simSeed: simSeed, sz: sz, chk: chk}, nil
	case "quick_suite":
		return &suiteWorkload{simSeed: simSeed, sz: sz, chk: chk}, nil
	case "serve_jobs":
		return newServeWorkload(seed, simSeed, sz, chk), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// pinnedSimSeed is the simulation seed every workload runs at whatever
// --seed says: the product defaults' seed. Wall time depends strongly on
// the simulation seed (dense_400 took 5.0–8.3 s over seeds 1–6, and
// serve_jobs' slowest cells, which set miss_ms_p95, change with it), so
// letting the workload seed pick it would measure the seed, not the code.
// --sim-seed runs another one.
const pinnedSimSeed = 1

// inputKey names a workload's input for the digest table by its simulation
// seed.
func inputKey(name string, simSeed int64) string {
	if simSeed == 0 {
		simSeed = pinnedSimSeed
	}
	return fmt.Sprintf("%s@sim%d", name, simSeed)
}
