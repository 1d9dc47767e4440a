package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"rcast/internal/core"
	"rcast/internal/energy"
	"rcast/internal/geom"
	"rcast/internal/mac"
	"rcast/internal/mobility"
	"rcast/internal/phy"
	"rcast/internal/propagation"
	"rcast/internal/routing/dsr"
	"rcast/internal/scenario"
	"rcast/internal/serve"
	"rcast/internal/sim"
	"rcast/internal/trace"
)

// Layer drivers time calls into one layer's public functions from outside,
// with inputs shaped by the workload's representative cell (node count,
// field, speeds, range, channel) and drawn from the workload seed. Each
// returns nanoseconds (or the stated unit) per call and records one span
// per batch of calls.

// recording is what a traced run of the representative cell captured:
// every route-cache insertion, and a window of the event stream.
type recording struct {
	routes []cacheInsert
	events []trace.Event
}

type cacheInsert struct {
	at   sim.Time
	path []phy.NodeID
}

// maxRoutes and maxEvents bound the recording's memory on large cells.
const (
	maxRoutes = 300_000
	maxEvents = 100_000
)

// routeSink keeps "cache" events as parsed routes; other events pass to
// the ring.
type routeSink struct {
	rec  *recording
	ring *trace.Ring
}

func (s routeSink) Emit(e trace.Event) {
	s.ring.Emit(e)
	if e.Kind != trace.KindCache || len(s.rec.routes) >= maxRoutes {
		return
	}
	if path, ok := parseRoute(e.Detail); ok {
		s.rec.routes = append(s.rec.routes, cacheInsert{at: e.At, path: path})
	}
}

// parseRoute reads a route as the scenario renders it: "[n0 n3 n7]".
func parseRoute(s string) ([]phy.NodeID, bool) {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "["), "]")
	fields := strings.Fields(s)
	path := make([]phy.NodeID, 0, len(fields))
	for _, f := range fields {
		n, err := strconv.Atoi(strings.TrimPrefix(f, "n"))
		if err != nil {
			return nil, false
		}
		path = append(path, phy.NodeID(n))
	}
	return path, len(path) >= 2
}

// record runs cfg once with a trace sink that captures its cache
// insertions and a window of its events.
func record(cfg scenario.Config) (*recording, error) {
	rec := &recording{}
	ring := trace.NewRing(maxEvents)
	cfg.Trace = routeSink{rec: rec, ring: ring}
	if _, err := scenario.Run(cfg); err != nil {
		return nil, fmt.Errorf("recording run: %w", err)
	}
	rec.events = ring.Events()
	return rec, nil
}

// layerMetrics runs every driver and returns the per-layer driver metrics.
func layerMetrics(tr *tracer, cfg scenario.Config, seed int64, rec *recording) (map[string]float64, error) {
	out := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	out["sim.schedule_fire_ns"] = scheduleFire(tr, cfg, rng)
	out["phy.transmit_ns_p50"], out["phy.transmit_ns_p99"], out["phy.neighbors_ns"] = phyDriver(tr, cfg, seed, rng)
	out["propagation.decodable_ns"] = decodable(tr, cfg, seed, rng)
	out["mobility.position_ns"] = positions(tr, cfg, seed)
	out["mac.psm_beacon_us"] = psmBeacon(tr, cfg, seed, rng)
	out["dsr.cache_add_ns_p50"], out["dsr.cache_add_ns_p99"], out["dsr.cache_find_ns"], out["dsr.cache_remove_link_ns"] = cacheReplay(tr, rec.routes, rng)
	out["energy.set_state_ns"] = setState(tr)
	out["trace.emit_ns"] = emit(tr, rec.events)
	var err error
	if out["scenario.canonical_key_ns"], err = canonicalKey(tr, cfg); err != nil {
		return nil, err
	}
	if out["scenario.build_ms"], err = build(tr, cfg); err != nil {
		return nil, err
	}
	if out["serve.submit_hit_ns"], err = submitHit(tr, cfg); err != nil {
		return nil, err
	}
	return out, nil
}

// nsPer is the mean nanoseconds per call of a batch.
func nsPer(d time.Duration, calls int) float64 { return float64(d.Nanoseconds()) / float64(calls) }

// scheduleFire is the hold model: a scheduler kept at a pending depth of
// ten events per node, where each fired event schedules its successor.
func scheduleFire(tr *tracer, cfg scenario.Config, rng *rand.Rand) float64 {
	s := sim.NewScheduler()
	depth := 10 * cfg.Nodes
	deltas := make([]sim.Time, 4096)
	for i := range deltas {
		deltas[i] = sim.Time(rng.ExpFloat64()*float64(depth)*float64(sim.Millisecond)) + 1
	}
	k := 0
	var hold func()
	hold = func() {
		k++
		s.After(deltas[k%len(deltas)], hold)
	}
	for i := 0; i < depth; i++ {
		s.After(deltas[i%len(deltas)], hold)
	}
	const calls = 500_000
	start := time.Now()
	for i := 0; i < calls; i++ {
		s.Step()
	}
	d := time.Since(start)
	tr.driverSpan("sim.Scheduler.At+fire", calls, start)
	return nsPer(d, calls)
}

type nullReceiver struct{}

func (nullReceiver) OnFrame(phy.Frame) {}

// radioField places cfg's nodes on its field with their own waypoint
// trajectories (static for a static cell), on a channel with cfg's
// propagation model.
func radioField(cfg scenario.Config, seed int64) (*sim.Scheduler, *phy.Channel, []*phy.Radio) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, cfg.RangeM)
	ch.SetMotionBound(math.Max(cfg.MaxSpeed, 0.1))
	if cfg.Channel != "" && cfg.Channel != "disk" {
		if m, err := propagation.Parse(cfg.Channel, cfg.RangeM, cfg.ShadowSigmaDB, seed); err == nil {
			ch.SetPropagation(m)
		}
	}
	field := geom.Rect{W: cfg.FieldW, H: cfg.FieldH}
	radios := make([]*phy.Radio, cfg.Nodes)
	for i := range radios {
		rng := sim.Stream(seed, fmt.Sprintf("mob/%d", i))
		var mob mobility.Model = mobility.Static{P: field.RandomPoint(rng)}
		if cfg.Pause < cfg.Duration {
			mob = mobility.NewWaypoint(mobility.WaypointConfig{
				Field: field, MinSpeed: cfg.MinSpeed, MaxSpeed: cfg.MaxSpeed,
				Pause: cfg.Pause, Start: field.RandomPoint(rng),
			}, rng)
		}
		radios[i] = ch.AddRadio(phy.NodeID(i), mob)
		radios[i].SetReceiver(nullReceiver{})
	}
	return sched, ch, radios
}

// phyDriver times broadcasts (Transmit plus draining the deliveries it
// schedules) and neighbour visits, 10 ms of simulated time apart so the
// nodes move between calls.
func phyDriver(tr *tracer, cfg scenario.Config, seed int64, rng *rand.Rand) (p50, p99, nbr float64) {
	sched, ch, radios := radioField(cfg, seed)
	const calls = 20_000
	step := func() { _, _ = sched.At(sched.Now()+10*sim.Millisecond, func() {}); sched.Run() }
	tx := make([]float64, 0, calls)
	start := time.Now()
	for i := 0; i < calls; i++ {
		r := radios[rng.Intn(len(radios))]
		t := time.Now()
		ch.Transmit(r, phy.Frame{From: r.ID(), To: phy.Broadcast, Bytes: 512}, 2)
		sched.Run()
		tx = append(tx, float64(time.Since(t).Nanoseconds()))
		step()
	}
	tr.driverSpan("phy.Channel.Transmit", calls, start)

	count := 0
	visit := func(phy.NodeID) { count++ }
	var d time.Duration
	start = time.Now()
	for i := 0; i < calls; i++ {
		r := radios[rng.Intn(len(radios))]
		t := time.Now()
		ch.VisitNeighbors(r, sched.Now(), visit)
		d += time.Since(t)
		step()
	}
	tr.driverSpan("phy.Channel.VisitNeighbors", calls, start)
	return percentile(tx, 50), percentile(tx, 99), nsPer(d, calls)
}

// decodable times Decodable of the A9 models (shadowing at 4 dB, Rayleigh
// fading) on random node pairs within the models' reach, at monotone
// instants.
func decodable(tr *tracer, cfg scenario.Config, seed int64, rng *rand.Rand) float64 {
	models := []propagation.Model{
		propagation.NewShadowing(cfg.RangeM, 4, seed),
		propagation.NewFading(cfg.RangeM, seed),
	}
	const calls = 400_000
	type query struct {
		a, b phy.NodeID
		dist float64
	}
	qs := make([]query, 4096)
	for i := range qs {
		qs[i] = query{phy.NodeID(rng.Intn(cfg.Nodes)), phy.NodeID(rng.Intn(cfg.Nodes)), rng.Float64() * 1.5 * cfg.RangeM}
	}
	n := 0
	start := time.Now()
	for i := 0; i < calls; i++ {
		q := qs[i%len(qs)]
		if models[i&1].Decodable(sim.Time(i/64)*sim.Millisecond, q.a, q.b, q.dist) {
			n++
		}
	}
	d := time.Since(start)
	tr.driverSpan("propagation.Decodable", calls, start)
	sinkInt = n
	return nsPer(d, calls)
}

// sinkInt receives results of timed calls so the compiler cannot drop them.
var sinkInt int

// positions times Waypoint.PositionAt for every node at instants 100 ms
// apart across the cell's duration.
func positions(tr *tracer, cfg scenario.Config, seed int64) float64 {
	field := geom.Rect{W: cfg.FieldW, H: cfg.FieldH}
	ws := make([]*mobility.Waypoint, cfg.Nodes)
	for i := range ws {
		rng := sim.Stream(seed, fmt.Sprintf("mob/%d", i))
		ws[i] = mobility.NewWaypoint(mobility.WaypointConfig{
			Field: field, MinSpeed: cfg.MinSpeed, MaxSpeed: cfg.MaxSpeed,
			Pause: cfg.Pause, Start: field.RandomPoint(rng),
		}, rng)
	}
	calls := 0
	var x float64
	start := time.Now()
	for t := sim.Time(0); calls < 400_000; t += 100 * sim.Millisecond {
		for _, w := range ws {
			x += w.PositionAt(t).X
			calls++
		}
	}
	d := time.Since(start)
	tr.driverSpan("mobility.Waypoint.PositionAt", calls, start)
	sinkInt = int(x)
	return nsPer(d, calls)
}

type nullUpcalls struct{}

func (nullUpcalls) OnReceive(phy.NodeID, mac.Packet)  {}
func (nullUpcalls) OnOverhear(phy.NodeID, mac.Packet) {}

// psmBeacon times beacon intervals of a static Rcast PSM topology with
// cfg's nodes and field, queueing a data packet to a neighbour at
// cfg.Connections random stations before each interval.
func psmBeacon(tr *tracer, cfg scenario.Config, seed int64, rng *rand.Rand) float64 {
	static := cfg
	static.Pause = static.Duration
	sched, ch, radios := radioField(static, seed)
	p := mac.DefaultParams()
	const intervals = 200
	interval := p.BeaconInterval
	coord := mac.NewCoordinator(sched, ch, p, sim.Stream(seed, "atim"), sim.Time(intervals+2)*interval)
	stations := make([]*mac.PSM, len(radios))
	for i, r := range radios {
		stations[i] = mac.NewPSM(sched, ch, r, energy.NewMeter(0, 0, 0), core.Rcast{},
			sim.Stream(seed, fmt.Sprintf("mac/%d", i)), p, nullUpcalls{})
		coord.AddStation(stations[i])
	}
	coord.Start()
	var d time.Duration
	start := time.Now()
	for k := 0; k < intervals; k++ {
		for c := 0; c < cfg.Connections; c++ {
			i := rng.Intn(len(stations))
			if nbrs := ch.Neighbors(radios[i], sched.Now()); len(nbrs) > 0 {
				stations[i].Send(mac.Packet{Dst: nbrs[rng.Intn(len(nbrs))], Class: core.ClassData, Bytes: 512})
			}
		}
		t := time.Now()
		sched.RunUntil(sim.Time(k+1) * interval)
		d += time.Since(t)
	}
	tr.driverSpan("mac.PSM beacon interval", intervals, start)
	return float64(d.Nanoseconds()) / 1e3 / intervals
}

// cacheReplay replays, per node, the route-cache insertions the cell made:
// each route is offered with its prefixes, then looked up; every 16th
// route then loses a random link.
func cacheReplay(tr *tracer, routes []cacheInsert, rng *rand.Rand) (addP50, addP99, find, remove float64) {
	def := dsr.DefaultConfig()
	caches := map[phy.NodeID]*dsr.Cache{}
	adds := make([]float64, 0, 4*len(routes))
	var findD, removeD time.Duration
	finds, removes := 0, 0
	start := time.Now()
	for i, r := range routes {
		c := caches[r.path[0]]
		if c == nil {
			c = dsr.NewCache(r.path[0], def.CacheCapacity, def.CacheLifetime)
			caches[r.path[0]] = c
		}
		for k := 2; k <= len(r.path); k++ {
			t := time.Now()
			c.Add(r.at, r.path[:k])
			adds = append(adds, float64(time.Since(t).Nanoseconds()))
		}
		t := time.Now()
		c.Find(r.at, r.path[len(r.path)-1])
		findD += time.Since(t)
		finds++
		if i%16 == 15 {
			j := rng.Intn(len(r.path) - 1)
			t := time.Now()
			c.RemoveLink(r.path[j], r.path[j+1])
			removeD += time.Since(t)
			removes++
		}
	}
	tr.driverSpan("dsr.Cache.Add+Find+RemoveLink", len(adds)+finds+removes, start)
	if finds == 0 {
		return 0, 0, 0, 0
	}
	return percentile(adds, 50), percentile(adds, 99), nsPer(findD, finds), nsPer(removeD, max(removes, 1))
}

// setState times Meter.SetState switching awake↔asleep 1 ms apart.
func setState(tr *tracer) float64 {
	m := energy.NewMeter(0, 0, 0)
	const calls = 1_000_000
	start := time.Now()
	for i := 1; i <= calls; i++ {
		s := energy.Awake
		if i&1 == 1 {
			s = energy.Asleep
		}
		_ = m.SetState(sim.Time(i)*sim.Millisecond, s) // times only increase
	}
	d := time.Since(start)
	tr.driverSpan("energy.Meter.SetState", calls, start)
	return nsPer(d, calls)
}

// emit times Writer.Emit of the recorded events to io.Discard.
func emit(tr *tracer, events []trace.Event) float64 {
	if len(events) == 0 {
		return 0
	}
	w := trace.NewWriter(io.Discard)
	calls := 0
	start := time.Now()
	for calls < 300_000 {
		for _, e := range events {
			w.Emit(e)
		}
		calls += len(events)
	}
	d := time.Since(start)
	tr.driverSpan("trace.Writer.Emit", calls, start)
	return nsPer(d, calls)
}

func canonicalKey(tr *tracer, cfg scenario.Config) (float64, error) {
	const calls = 20_000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, err := cfg.CanonicalKey(1); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	tr.driverSpan("scenario.Config.CanonicalKey", calls, start)
	return nsPer(d, calls), nil
}

// build times scenario.Run on cfg cut to one beacon interval, so world
// construction dominates; it reports the median of seven runs in ms.
func build(tr *tracer, cfg scenario.Config) (float64, error) {
	cfg.Duration = cfg.MAC.BeaconInterval
	cfg.TrafficStart = 0
	cfg.Pause = min(cfg.Pause, cfg.Duration)
	walls := make([]float64, 0, 7)
	start := time.Now()
	for i := 0; i < cap(walls); i++ {
		t := time.Now()
		if _, err := scenario.Run(cfg); err != nil {
			return 0, fmt.Errorf("build: %w", err)
		}
		walls = append(walls, ms(time.Since(t)))
	}
	tr.driverSpan("scenario.Run (one beacon interval)", len(walls), start)
	return median(walls), nil
}

// submitHit times Server.Submit of a request whose result is cached,
// without HTTP.
func submitHit(tr *tracer, cfg scenario.Config) (float64, error) {
	cfg.Duration = 10 * sim.Second // the request keeps the default 5 s traffic start
	cfg.Pause = min(cfg.Pause, cfg.Duration)
	pause := cfg.Pause.Seconds()
	seed := cfg.Seed
	req := serve.JobRequest{
		Scheme: cfg.Scheme.String(), Nodes: cfg.Nodes, FieldW: cfg.FieldW, FieldH: cfg.FieldH,
		RangeM: cfg.RangeM, Connections: cfg.Connections, PacketRate: cfg.PacketRate,
		DurationSec: cfg.Duration.Seconds(), PauseSec: &pause, Channel: cfg.Channel,
		ShadowSigmaDB: cfg.ShadowSigmaDB, Seed: &seed,
	}
	srv := serve.New(serve.Options{Workers: 1})
	defer func() { _ = srv.Shutdown(context.Background()) }()
	job, _, err := srv.Submit(req)
	if err != nil {
		return 0, fmt.Errorf("submit: %w", err)
	}
	for deadline := time.Now().Add(time.Minute); !job.State().Terminal(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("submit: first job still %s after a minute", job.State())
		}
	}
	if job.State() != serve.StateDone {
		return 0, fmt.Errorf("submit: first job ended %s", job.State())
	}
	const calls = 20_000
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, outcome, err := srv.Submit(req); err != nil || outcome != serve.OutcomeCacheHit {
			return 0, fmt.Errorf("submit: repeat was not a cache hit (outcome %d, err %v)", outcome, err)
		}
	}
	d := time.Since(start)
	tr.driverSpan("serve.Server.Submit (hit)", calls, start)
	return nsPer(d, calls), nil
}
