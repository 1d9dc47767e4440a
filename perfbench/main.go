// Command perfbench is the repository's benchmark. It runs one workload
// (dense_400, quick_suite or serve_jobs) for a fixed wall-clock budget,
// checks the workload's outputs, and prints the metrics BENCHMARK.json
// names: the end-to-end metrics on an untraced run (--trace 0), or the
// per-layer metrics on a traced, CPU-profiled run (--trace 1). The last
// line of standard output is the result as one JSON object; the line
// before it is the run record (host, seeds, sample counts, digest).
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload dense_400 --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for what each workload and metric is for.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rcast"
	"rcast/internal/scenario"
)

var processStart = time.Now()

type options struct {
	workload      string
	seed          int64
	simSeed       int64
	seconds       float64
	trace         bool
	out           string
	recordDigests bool

	// Set by the benchmark's own test only.
	sz   size
	want []part                          // replaces the recorded digest
	wrap func(http.Handler) http.Handler // wraps serve_jobs' handler
}

func main() {
	var o options
	var traced int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: dense_400, quick_suite or serve_jobs")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Int64Var(&o.simSeed, "sim-seed", 0, "simulation seed (0: the pinned seed 1)")
	fs.Float64Var(&o.seconds, "seconds", 20, "wall-clock seconds to measure for")
	fs.IntVar(&traced, "trace", 0, "1: traced, profiled run printing the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for spans and profiles")
	fs.BoolVar(&o.recordDigests, "record-digests", false, "print the output digest parts for digests.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = traced == 1
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// lists; the benchmark's test holds the two in step.
var endToEnd = []struct{ name, unit string }{
	{"simsec_per_s", "s/s"},
	{"runs_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"miss_ms_p50", "ms"},
	{"miss_ms_p95", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

func perLayer() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	for _, l := range layers {
		out = append(out, struct{ name, unit string }{l + ".self_frac", "frac"})
	}
	return append(out, []struct{ name, unit string }{
		{"sim.schedule_fire_ns", "ns"},
		{"phy.transmit_ns_p50", "ns"},
		{"phy.transmit_ns_p99", "ns"},
		{"phy.neighbors_ns", "ns"},
		{"phy.tx", "count"},
		{"phy.decode_ratio", "frac"},
		{"propagation.decodable_ns", "ns"},
		{"mobility.position_ns", "ns"},
		{"mac.psm_beacon_us", "us"},
		{"mac.data_tx", "count"},
		{"mac.link_success_ratio", "frac"},
		{"mac.awake_frac", "frac"},
		{"dsr.cache_add_ns_p50", "ns"},
		{"dsr.cache_add_ns_p99", "ns"},
		{"dsr.cache_find_ns", "ns"},
		{"dsr.cache_remove_link_ns", "ns"},
		{"dsr.rreq", "count"},
		{"dsr.control_per_delivered", "ratio"},
		{"energy.set_state_ns", "ns"},
		{"trace.emit_ns", "ns"},
		{"trace.overhead_frac", "frac"},
		{"scenario.canonical_key_ns", "ns"},
		{"scenario.build_ms", "ms"},
		{"experiments.cpu_util", "frac"},
		{"serve.submit_hit_ns", "ns"},
		{"serve.hit_ms_p50", "ms"},
		{"serve.hit_ms_p99", "ms"},
		{"serve.queue_wait_ms_p50", "ms"},
		{"serve.queue_wait_ms_p95", "ms"},
		{"serve.run_ms_p50", "ms"},
		{"serve.hit_ratio", "frac"},
		{"serve.coalesced", "count"},
		{"serve.rejected", "count"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"bench.trace_overhead_frac", "frac"},
	}...)
}

// phase collects rounds, and the runtime counters summed over the time
// the rounds ran.
type phase struct {
	rounds     []roundResult
	setups     []float64     // seconds each round's set-up took
	work       time.Duration // summed round walls
	counts     rtSample      // summed counter deltas over the rounds
	firstTimed time.Time     // when the first round's timed work began
}

// runRound sets up, runs and tears down one round. With prof non-nil the
// round runs under the CPU profiler and its profile is appended.
func (p *phase) runRound(w workload, tr *tracer, prof *[][]byte) error {
	t := time.Now()
	r, err := w.setUp()
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	p.setups = append(p.setups, time.Since(t).Seconds())
	// Every round's timed work starts from a collected heap. Collecting
	// before the set-up instead would leave it to rebuild the allocator's
	// caches, which took several times the set-up itself.
	runtime.GC()
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			_ = r.close()
			return err
		}
	}
	if p.firstTimed.IsZero() {
		p.firstTimed = time.Now()
	}
	before := readRuntime()
	res := r.run(tr)
	after := readRuntime()
	if prof != nil {
		pprof.StopCPUProfile()
		*prof = append(*prof, buf.Bytes())
	}
	p.rounds = append(p.rounds, res)
	p.work += res.wall
	p.counts.allocBytes += after.allocBytes - before.allocBytes
	p.counts.allocObjects += after.allocObjects - before.allocObjects
	p.counts.gcCPU += after.gcCPU - before.gcCPU
	p.counts.busyCPU += after.busyCPU - before.busyCPU
	p.counts.cpu += after.cpu - before.cpu
	if err := r.close(); err != nil {
		return fmt.Errorf("tear-down: %w", err)
	}
	return nil
}

// perRound is the median over rounds of f(round) per wall second.
func (p phase) perRound(f func(roundResult) float64) float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = f(r) / r.wall.Seconds()
	}
	return median(xs)
}

func (p phase) gather(f func(roundResult) []float64) []float64 {
	var out []float64
	for _, r := range p.rounds {
		out = append(out, f(r)...)
	}
	return out
}

func (p phase) sum(f func(roundResult) int) int {
	n := 0
	for _, r := range p.rounds {
		n += f(r)
	}
	return n
}

func (p phase) walls() []float64 {
	xs := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		xs[i] = r.wall.Seconds()
	}
	return xs
}

func run(o options, stdout, log io.Writer) error {
	h := pinProcs()
	digests, err := recordedDigests()
	if err != nil {
		return err
	}
	key := inputKey(o.workload, o.simSeed)
	if o.sz == toy {
		key += "/toy" // digests.json records full-size outputs only
	}
	chk := &checker{want: digests[key], log: log}
	if o.want != nil {
		chk.want = o.want
	}
	w, err := newWorkload(o.workload, o.seed, o.simSeed, o.sz, chk)
	if err != nil {
		return err
	}
	if sw, ok := w.(*serveWorkload); ok {
		sw.wrap = o.wrap
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	rec := map[string]any{
		"workload": o.workload, "seed": o.seed, "input": key, "seconds": o.seconds,
		"trace": o.trace, "host": h, "digest_recorded": chk.want != nil,
	}
	res := result{Metrics: map[string]metric{}}

	var measured phase
	if !o.trace {
		for start := time.Now(); len(measured.rounds) == 0 || time.Since(start) < budget; {
			if err := measured.runRound(w, nil, nil); err != nil {
				return err
			}
		}
		missMs := measured.gather(func(r roundResult) []float64 { return r.missMs })
		vals := map[string]float64{
			"simsec_per_s": measured.perRound(func(r roundResult) float64 { return r.simSeconds }),
			"runs_per_s":   measured.perRound(func(r roundResult) float64 { return float64(r.simRuns) }),
			"jobs_per_s":   measured.perRound(func(r roundResult) float64 { return float64(r.requests) }),
			"miss_ms_p50":  percentile(missMs, 50),
			"miss_ms_p95":  percentile(missMs, 95),
			"setup_s":      median(measured.setups),
			"peak_rss_mb":  peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		rec["process_setup_s"] = measured.firstTimed.Sub(processStart).Seconds()
		rec["samples"] = map[string]int{"rounds": len(measured.rounds), "setup_s": len(measured.setups), "miss_ms": len(missMs)}
		rec["round_walls_s"] = measured.walls()
	} else {
		vals, err := tracedRun(o, w, budget, &measured, rec)
		if err != nil {
			return err
		}
		for _, m := range perLayer() {
			v := vals[m.name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}

	res.Attempted = measured.sum(func(r roundResult) int { return r.attempted })
	res.Failed = measured.sum(func(r roundResult) int { return r.failed })
	a, f := w.verify()
	res.Attempted += a
	res.Failed += f
	res.Correct = res.Failed == 0 && res.Attempted > 0
	rec["error_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	rec["digest"] = digestOf(chk.seen)
	if sw, ok := w.(*serveWorkload); ok {
		rec["stream"] = sw.shape
	}
	if o.recordDigests {
		rec["digest_parts"] = map[string][]part{key: chk.seen}
	}
	for _, line := range []any{map[string]any{"record": rec}, res} {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", data)
	}
	return nil
}

// minTracedPairs is the fewest (untraced, traced) round pairs a traced run
// makes, however long each round takes, so bench.trace_overhead_frac is
// a median over at least that many per-pair ratios.
const minTracedPairs = 5

// tracedRun makes the per-layer measurements. It runs pairs of an
// untraced round, which gives the runtime counters, pool utilization and
// serve outcome figures, and a traced round run under the CPU profiler and
// recorded as spans, so both see the same host conditions. Then come the
// representative cell with and without a trace sink, and the layer
// drivers. Spans and profiles are written under o.out/trace; sample counts
// and the profile's unattributed share go into runRec.
func tracedRun(o options, w workload, budget time.Duration, measured *phase, runRec map[string]any) (map[string]float64, error) {
	var ref, traced phase
	tr := newTracer()
	var profiles [][]byte
	untraced := func() error { return ref.runRound(w, nil, nil) }
	profiled := func() error { return traced.runRound(w, tr, &profiles) }
	for start := time.Now(); len(traced.rounds) < minTracedPairs || time.Since(start) < budget; {
		// Which round of a pair goes first alternates, so an effect of
		// going first or second does not show as tracing overhead.
		first, second := untraced, profiled
		if len(traced.rounds)%2 == 1 {
			first, second = profiled, untraced
		}
		if err := first(); err != nil {
			return nil, err
		}
		if err := second(); err != nil {
			return nil, err
		}
	}
	*measured = phase{rounds: append(ref.rounds, traced.rounds...)}

	vals := map[string]float64{}
	self, unattributed, err := foldSelf(profiles)
	if err != nil {
		return nil, err
	}
	for l, v := range self {
		vals[l+".self_frac"] = v
	}
	// Each traced round is compared with the untraced round of its pair,
	// so host speed drifting over the run cancels out of each ratio.
	pairs := make([]float64, len(traced.rounds))
	for i := range pairs {
		pairs[i] = traced.rounds[i].wall.Seconds()/ref.rounds[i].wall.Seconds() - 1
	}
	vals["bench.trace_overhead_frac"] = median(pairs)

	requests := ref.sum(func(r roundResult) int { return r.requests })
	vals["runtime.alloc_mb_per_op"] = ref.counts.allocBytes / float64(requests) / (1 << 20)
	vals["runtime.allocs_per_op"] = ref.counts.allocObjects / float64(requests)
	vals["runtime.gc_cpu_frac"] = ref.counts.gcCPU / ref.counts.busyCPU
	vals["experiments.cpu_util"] = ref.counts.cpu / (ref.work.Seconds() * float64(w.workers()))

	hitMs := ref.gather(func(r roundResult) []float64 { return r.hitMs })
	waitMs := ref.gather(func(r roundResult) []float64 { return r.queueWaitMs })
	runMs := ref.gather(func(r roundResult) []float64 { return r.runMs })
	vals["serve.hit_ms_p50"] = percentile(hitMs, 50)
	vals["serve.hit_ms_p99"] = percentile(hitMs, 99)
	vals["serve.queue_wait_ms_p50"] = percentile(waitMs, 50)
	vals["serve.queue_wait_ms_p95"] = percentile(waitMs, 95)
	vals["serve.run_ms_p50"] = percentile(runMs, 50)
	if _, ok := w.(*serveWorkload); ok {
		vals["serve.hit_ratio"] = float64(ref.sum(func(r roundResult) int { return r.hits })) / float64(requests)
	}
	vals["serve.coalesced"] = float64(ref.sum(func(r roundResult) int { return r.coalesced }))
	vals["serve.rejected"] = float64(ref.sum(func(r roundResult) int { return r.rejected }))

	// The representative cell, plain and with an NDJSON trace sink. For
	// dense_400 the cell is the workload, so its reference rounds are the
	// plain runs.
	cfg := w.rep()
	var plain []float64
	var cell *scenario.Result
	if _, ok := w.(*cellWorkload); ok {
		plain, cell = ref.walls(), ref.rounds[len(ref.rounds)-1].last
	}
	var sinked []float64
	for len(sinked) < 1 || (len(sinked) < 5 && median(sinked) < 1) {
		if len(plain) <= len(sinked) {
			t := time.Now()
			if cell, err = scenario.Run(cfg); err != nil {
				return nil, err
			}
			plain = append(plain, time.Since(t).Seconds())
		}
		c := cfg
		c.Trace = rcast.NewTraceWriter(io.Discard)
		_, end := tr.begin("scenario.Run (NDJSON sink)", 0, "")
		t := time.Now()
		if _, err := scenario.Run(c); err != nil {
			return nil, err
		}
		sinked = append(sinked, time.Since(t).Seconds())
		end()
	}
	vals["trace.overhead_frac"] = median(sinked)/median(plain) - 1
	cellCounts(cell, vals)

	rec, err := record(cfg)
	if err != nil {
		return nil, err
	}
	drivers, err := layerMetrics(tr, cfg, o.seed, rec)
	if err != nil {
		return nil, err
	}
	for k, v := range drivers {
		vals[k] = v
	}

	dir := filepath.Join(o.out, "trace")
	name := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	if err := tr.write(dir, name+".spans.json"); err != nil {
		return nil, err
	}
	for i, prof := range profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s.cpu-%d.pprof", name, i)), prof, 0o644); err != nil {
			return nil, fmt.Errorf("write profile: %w", err)
		}
	}
	runRec["profile_unattributed_frac"] = unattributed
	runRec["samples"] = map[string]int{
		"reference_rounds": len(ref.rounds), "bench.trace_overhead_pairs": len(pairs),
		"serve.hit_ms": len(hitMs), "serve.queue_wait_ms": len(waitMs), "serve.run_ms": len(runMs),
		"trace.overhead_pairs": len(sinked), "dsr.routes": len(rec.routes), "trace.events": len(rec.events),
		"spans": len(tr.spans),
	}
	return vals, nil
}

// cellCounts derives the per-layer counts and ratios of one cell's result.
// They repeat exactly for a fixed seed.
func cellCounts(r *scenario.Result, vals map[string]float64) {
	if r == nil {
		return
	}
	ch := r.Channel
	outcomes := ch.Deliveries + ch.Collisions + ch.MissedAsleep + ch.FaultLost + ch.ChannelLost
	m := r.MACTotal
	vals["phy.tx"] = float64(ch.Transmissions)
	vals["phy.decode_ratio"] = ratio(ch.Deliveries, outcomes)
	vals["mac.data_tx"] = float64(m.DataTx)
	vals["mac.link_success_ratio"] = ratio(m.LinkSuccess, m.LinkSuccess+m.LinkFailures)
	vals["mac.awake_frac"] = ratio(m.AwakePhases, m.AwakePhases+m.SleptPhases)
	vals["dsr.rreq"] = float64(r.DSRTotal.RREQSent)
	vals["dsr.control_per_delivered"] = ratio(r.ControlTx, r.Delivered)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
