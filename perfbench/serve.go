package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcast/internal/scenario"
	"rcast/internal/serve"
)

// serveWorkload is serve_jobs: rcast-serve in process on a loopback
// listener, driven by nproc closed-loop clients. Each round replays the
// job stream against a fresh server, so every round starts with an empty
// result cache and holds fewer keys than the cache's capacity.
type serveWorkload struct {
	seed    int64 // orders the cells within each sweep
	simSeed int64 // every cell's simulation seed
	sz      size
	chk     *checker
	// wrap, when set, wraps the server's handler (tests inject failures).
	wrap func(http.Handler) http.Handler

	mu      sync.Mutex
	results map[string][]byte // key → first result body seen in the run
	bodies  map[string]serve.JobRequest
	shape   streamShape // of the last stream built
}

// streamShape counts a job stream: jobs sent and distinct cache keys among
// them. Every job past a key's first is a repeat.
type streamShape struct {
	Jobs     int `json:"jobs"`
	Distinct int `json:"distinct_keys"`
}

func newServeWorkload(seed, simSeed int64, sz size, chk *checker) *serveWorkload {
	return &serveWorkload{seed: seed, simSeed: simSeed, sz: sz, chk: chk,
		results: map[string][]byte{}, bodies: map[string]serve.JobRequest{}}
}

func (w *serveWorkload) workers() int { return runtime.GOMAXPROCS(0) }

// Stream cells are experiments.Quick() shrunk to 20 nodes and 30 s, so
// one needs milliseconds of simulation and the serving path dominates:
// Quick's field, connections and mobile pause are scaled with it, and its
// rates are kept.
const (
	lowRate, highRate = 0.4, 2.0
	cellSeconds       = 30.0
	mobilePause       = cellSeconds / 2 // Quick pauses half the run
	static            = -1.0            // pauses_sec value for a static cell
)

var (
	figureSchemes = []string{"802.11", "ODPM", "Rcast"}
	quickRates    = []float64{0.2, lowRate, 1.0, highRate}
)

// suiteSweeps is the quick suite asked of rcast-serve the way a sweep user
// would ask it: one sweep request per table or figure, in the order
// Suite.All prints them, with the figure's grid written in the sweep API's
// axes. Figures share cells (Table 1 and Figs. 5-9 are all corners of the
// same rate sweep, and every ablation has a baseline cell), so repeats come
// from the suite's own structure rather than from a chosen ratio. A4
// (route cache strategies), A7 (ATIM contention), A6's hello-less AODV and
// A8's crash+loss plan have no request field and are left out.
func (w *serveWorkload) suiteSweeps() []serve.SweepRequest {
	battery := 1.15 * cellSeconds * 0.6 // A5: always-on drains in 60% of the run
	base := serve.SweepRequest{
		Nodes: 20, FieldW: 600, FieldH: 300, Connections: 4,
		DurationSec: cellSeconds, Seed: &w.simSeed,
	}
	if w.sz == toy {
		base.Nodes, base.DurationSec = 10, 8
		battery = 1.15 * base.DurationSec * 0.6
	}
	mobileLow := func(sr serve.SweepRequest) serve.SweepRequest {
		if sr.Rates == nil {
			sr.Rates = []float64{lowRate}
		}
		sr.PausesSec = []float64{mobilePause}
		return sr
	}
	with := func(f func(*serve.SweepRequest)) serve.SweepRequest {
		sr := base
		f(&sr)
		return sr
	}
	rateSweep := with(func(sr *serve.SweepRequest) {
		sr.Schemes, sr.Rates, sr.PausesSec = figureSchemes, quickRates, []float64{mobilePause, static}
	})
	return []serve.SweepRequest{
		// Table 1
		mobileLow(with(func(sr *serve.SweepRequest) { sr.Schemes = figureSchemes })),
		// Fig. 5
		with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.Rates, sr.PausesSec = figureSchemes, []float64{lowRate, highRate}, []float64{mobilePause, static}
		}),
		rateSweep, rateSweep, rateSweep, // Figs. 6, 7 and 8
		// Fig. 9
		with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.Rates, sr.PausesSec = figureSchemes, []float64{lowRate, highRate}, []float64{mobilePause}
		}),
		// A1: overhearing policies
		mobileLow(with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.Policies = []string{"Rcast"}, []string{"rcast", "sender-id", "battery", "mobility", "combined"}
		})),
		// A2: overhearing levels
		mobileLow(with(func(sr *serve.SweepRequest) { sr.Schemes = []string{"PSM-no-overhear", "PSM", "Rcast"} })),
		// A3: gossip
		mobileLow(with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.Rates, sr.GossipFanouts = []string{"Rcast"}, []float64{highRate}, []float64{0, 3}
		})),
		// A5: lifetime
		mobileLow(with(func(sr *serve.SweepRequest) { sr.Schemes, sr.BatteryJoules = figureSchemes, battery })),
		// A6: DSR, then AODV
		mobileLow(with(func(sr *serve.SweepRequest) { sr.Schemes, sr.Routing = []string{"802.11", "Rcast"}, "DSR" })),
		mobileLow(with(func(sr *serve.SweepRequest) { sr.Schemes, sr.Routing = []string{"802.11", "Rcast"}, "AODV" })),
		// A8: faults
		mobileLow(with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.FaultPresets = []string{"802.11", "PSM", "ODPM", "Rcast"}, []string{"", "crash", "loss"}
		})),
		// A9: channels × mobility
		mobileLow(with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.ShadowSigmaDB = []string{"PSM", "Rcast"}, 4
			sr.Channels, sr.Mobilities = scenario.ChannelNames(), scenario.MobilityNames()
		})),
		// A10: TX power, then TX power with gossip
		mobileLow(with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.TxPowersDBm = []string{"PSM", "Rcast"}, []float64{-6, -3, 0, 3}
		})),
		mobileLow(with(func(sr *serve.SweepRequest) {
			sr.Schemes, sr.TxPowersDBm, sr.GossipFanouts = []string{"Rcast"}, []float64{-6, -3, 0, 3}, []float64{3}
		})),
	}
}

// stream expands the suite's sweeps with serve's own sweep expansion and
// returns one job body per cell, sweep after sweep. The seed orders the
// cells within each sweep, as clients dispatching a sweep's cells
// concurrently would; it changes which repeats find their key cached and
// which coalesce onto a running twin, but not what is computed.
func (w *serveWorkload) stream() ([][]byte, error) {
	var out [][]byte
	keys := map[string]bool{}
	rng := rand.New(rand.NewSource(w.seed))
	for i, sr := range w.suiteSweeps() {
		cells, err := sr.Cells()
		if err != nil {
			return nil, fmt.Errorf("sweep %d: %w", i, err)
		}
		rng.Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
		for _, c := range cells {
			body, err := json.Marshal(c.Req)
			if err != nil {
				return nil, err
			}
			out = append(out, body)
			keys[c.Key] = true
		}
	}
	w.shape = streamShape{Jobs: len(out), Distinct: len(keys)}
	return out, nil
}

// rep is the suite's baseline cell: Rcast on a disk channel at the low
// rate, mobile.
func (w *serveWorkload) rep() scenario.Config {
	cells, err := w.suiteSweeps()[0].Cells()
	if err != nil {
		panic(err) // the suite's own sweeps always validate
	}
	cfg, _, err := cells[len(cells)-1].Req.Config() // Table 1's Rcast cell
	if err != nil {
		panic(err)
	}
	return cfg
}

func (w *serveWorkload) setUp() (round, error) {
	jobs, err := w.stream()
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{Workers: w.workers()})
	var h http.Handler = srv.Handler()
	if w.wrap != nil {
		h = w.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	r := &serveRound{
		w: w, jobs: jobs, srv: srv, hs: hs, served: done,
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.workers()}},
	}
	// One request before the clock starts, so the listener is known to
	// accept and the first timed job does not pay for it.
	resp, err := r.client.Get(r.base + "/healthz")
	if err != nil {
		_ = r.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return r, nil
}

type serveRound struct {
	w      *serveWorkload
	jobs   [][]byte
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func (r *serveRound) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Close the client's idle connections first: a connection it dialed
	// but never used looks new to the server, which would otherwise wait
	// five seconds for it before shutting down.
	r.client.CloseIdleConnections()
	err := r.hs.Shutdown(ctx)
	<-r.served
	if serr := r.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// jobOutcome is one client request's result.
type jobOutcome struct {
	kind     string // "miss", "hit" or "coalesced"
	latency  time.Duration
	status   serve.Status
	err      error
	rejected bool
}

func (r *serveRound) run(tr *tracer) roundResult {
	var next atomic.Int64
	outcomes := make([]jobOutcome, len(r.jobs))
	seen := sync.Map{} // job ID → struct{}: a repeated ID is a coalesced job
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.w.workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.jobs) {
					return
				}
				outcomes[i] = r.do(tr, i, &seen)
			}
		}()
	}
	wg.Wait()
	out := roundResult{wall: time.Since(start), requests: len(r.jobs), attempted: len(r.jobs)}
	for _, o := range outcomes {
		if o.err != nil {
			out.failed++
			r.w.chk.fail("job: %v", o.err)
			if o.rejected {
				out.rejected++
			}
			continue
		}
		switch o.kind {
		case "hit":
			out.hits++
			out.hitMs = append(out.hitMs, ms(o.latency))
		case "coalesced":
			out.coalesced++
		default:
			st := o.status
			out.missMs = append(out.missMs, ms(o.latency))
			out.queueWaitMs = append(out.queueWaitMs, ms(st.StartedAt.Sub(st.SubmittedAt)))
			out.runMs = append(out.runMs, ms(st.FinishedAt.Sub(st.StartedAt)))
			out.simRuns += st.Reps
		}
	}
	out.simSeconds = float64(out.simRuns) * r.w.rep().Duration.Seconds()
	return out
}

// do sends job i: POST, wait on the SSE stream for a terminal state, GET
// the result, and check the bytes against the run's first result for the
// same key.
func (r *serveRound) do(tr *tracer, i int, seen *sync.Map) jobOutcome {
	job := fmt.Sprintf("r%p-j%d", r, i)
	parent, endJob := tr.begin("job", 0, job)
	defer endJob()
	start := time.Now()
	var o jobOutcome

	_, end := tr.begin("POST /api/v1/jobs", parent, job)
	resp, err := r.client.Post(r.base+"/api/v1/jobs", "application/json", bytes.NewReader(r.jobs[i]))
	end()
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode/100 != 2 {
		o.err = fmt.Errorf("POST: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		o.rejected = resp.StatusCode == http.StatusTooManyRequests
		return o
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		o.err = fmt.Errorf("POST: %w", err)
		return o
	}
	switch _, dup := seen.LoadOrStore(st.ID, struct{}{}); {
	case st.CacheHit:
		o.kind = "hit"
	case dup:
		o.kind = "coalesced"
	default:
		o.kind = "miss"
	}

	_, end = tr.begin("GET /events", parent, job)
	st, err = r.awaitTerminal(st.ID)
	end()
	if err != nil {
		o.err = err
		return o
	}
	if st.State != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return o
	}

	_, end = tr.begin("GET /result", parent, job)
	result, err := r.get("/api/v1/jobs/" + st.ID + "/result")
	end()
	o.latency = time.Since(start)
	o.status = st
	if err != nil {
		o.err = err
		return o
	}
	o.err = r.w.remember(st.Key, r.jobs[i], result)
	return o
}

// awaitTerminal reads the job's SSE stream until a terminal state.
func (r *serveRound) awaitTerminal(id string) (serve.Status, error) {
	var st serve.Status
	resp, err := r.client.Get(r.base + "/api/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return st, fmt.Errorf("events: %w", err)
		}
		if st.State.Terminal() {
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("events: %w", err)
	}
	return st, errors.New("events: stream ended before a terminal state")
}

func (r *serveRound) get(path string) ([]byte, error) {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// remember stores the first result body seen for a key and reports a
// later body that differs from it.
func (w *serveWorkload) remember(key string, reqBody, result []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.results[key]
	if !ok {
		var req serve.JobRequest
		if err := json.Unmarshal(reqBody, &req); err != nil {
			return err
		}
		w.results[key] = result
		w.bodies[key] = req
		return nil
	}
	if !bytes.Equal(first, result) {
		return fmt.Errorf("result for key %s differs from its first computed result%s",
			key, byteDiff([]part{{Name: key, data: first}}, []part{{Name: key, data: result}}, key))
	}
	return nil
}

// verify recomputes every distinct cell the run served through
// scenario.RunReplications and serve.MarshalResult, outside HTTP and the
// cache, and requires the served bytes to equal them. The served bodies,
// in key order, are then checked against the recorded digest.
func (w *serveWorkload) verify() (attempted, failed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keys := make([]string, 0, len(w.results))
	for k := range w.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]part, 0, len(keys))
	for _, key := range keys {
		attempted++
		cfg, reps, err := w.bodies[key].Config()
		if err == nil {
			var agg *scenario.Aggregate
			if agg, err = scenario.RunReplications(cfg, reps); err == nil {
				var want []byte
				if want, err = serve.MarshalResult(key, reps, agg); err == nil && !bytes.Equal(want, w.results[key]) {
					err = fmt.Errorf("served result differs from direct computation%s",
						byteDiff([]part{{Name: key, data: want}}, []part{{Name: key, data: w.results[key]}}, key))
				}
			}
		}
		if err != nil {
			failed++
			w.chk.fail("key %s: %v", key, err)
		}
		parts = append(parts, newPart(key, w.results[key]))
	}
	attempted++
	if !w.chk.check(parts) {
		failed++
	}
	return attempted, failed
}
