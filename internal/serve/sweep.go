package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"rcast/internal/scenario"
)

// SweepRequest is the submission body for POST /api/v1/sweeps: a
// parameter grid (schemes × rates × pause times × fault presets × gossip
// fanouts × channels × mobilities × policies × tx powers) over a base
// configuration, expanded server-side into cells
// keyed by scenario.CanonicalKey. Axis fields are plural; every other
// field scopes the whole sweep and mirrors JobRequest. Unknown fields are
// rejected so a typo cannot silently sweep the wrong grid.
type SweepRequest struct {
	// Axes. Schemes is required; the rest are optional (an empty axis
	// keeps the base value for every cell). A negative pause means
	// "static" (pause pinned to the simulation duration).
	Schemes       []string  `json:"schemes"`
	Rates         []float64 `json:"rates,omitempty"`
	PausesSec     []float64 `json:"pauses_sec,omitempty"`
	FaultPresets  []string  `json:"fault_presets,omitempty"`
	GossipFanouts []float64 `json:"gossip_fanouts,omitempty"`
	Channels      []string  `json:"channels,omitempty"`
	Mobilities    []string  `json:"mobilities,omitempty"`
	Policies      []string  `json:"policies,omitempty"`
	TxPowersDBm   []float64 `json:"tx_powers_dbm,omitempty"`

	// Base configuration shared by every cell.
	Routing       string   `json:"routing,omitempty"`
	Nodes         int      `json:"nodes,omitempty"`
	FieldW        float64  `json:"field_w,omitempty"`
	FieldH        float64  `json:"field_h,omitempty"`
	RangeM        float64  `json:"range_m,omitempty"`
	Connections   int      `json:"connections,omitempty"`
	PacketBytes   int      `json:"packet_bytes,omitempty"`
	DurationSec   float64  `json:"duration_sec,omitempty"`
	Static        bool     `json:"static,omitempty"`
	MinSpeed      *float64 `json:"min_speed,omitempty"`
	MaxSpeed      *float64 `json:"max_speed,omitempty"`
	Seed          *int64   `json:"seed,omitempty"`
	Reps          int      `json:"reps,omitempty"`
	BatteryJoules float64  `json:"battery_joules,omitempty"`
	Audit         bool     `json:"audit,omitempty"`
	ShadowSigmaDB float64  `json:"shadow_sigma_db,omitempty"`
	GroupSize     int      `json:"group_size,omitempty"`
	GroupRadiusM  float64  `json:"group_radius_m,omitempty"`

	// TimeoutSec bounds each cell's execution, like JobRequest.TimeoutSec
	// bounds a job; it is outside every cache key.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// ParseSweepRequest decodes a sweep submission strictly: unknown fields
// and trailing garbage are errors.
func ParseSweepRequest(r io.Reader) (SweepRequest, error) {
	var req SweepRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("serve: bad sweep request: %w", err)
	}
	if dec.More() {
		return req, fmt.Errorf("serve: bad sweep request: trailing data after JSON object")
	}
	return req, nil
}

// SweepCell is one expanded cell of a sweep: the paper-facing request the
// fleet dispatches, the resolved config the local path runs, and the
// content-address both share with the plain jobs API.
type SweepCell struct {
	Index int
	Req   JobRequest
	Key   string

	cfg  scenario.Config
	reps int
}

// grid maps the request's axis fields onto scenario.Grid.
func (sr SweepRequest) grid() (scenario.Grid, error) {
	var g scenario.Grid
	if len(sr.Schemes) == 0 {
		return g, fmt.Errorf("serve: sweep has no schemes axis")
	}
	for _, name := range sr.Schemes {
		sch, err := scenario.ParseScheme(name)
		if err != nil {
			return g, err
		}
		g.Schemes = append(g.Schemes, sch)
	}
	g.Rates = sr.Rates
	g.PausesSec = sr.PausesSec
	g.FaultPresets = sr.FaultPresets
	g.GossipFanouts = sr.GossipFanouts
	g.Channels = sr.Channels
	g.Mobilities = sr.Mobilities
	g.Policies = sr.Policies
	g.TxPowersDBm = sr.TxPowersDBm
	return g, nil
}

// baseJobRequest returns the cell-independent part of each cell's job.
func (sr SweepRequest) baseJobRequest() JobRequest {
	return JobRequest{
		Routing:       sr.Routing,
		Nodes:         sr.Nodes,
		FieldW:        sr.FieldW,
		FieldH:        sr.FieldH,
		RangeM:        sr.RangeM,
		Connections:   sr.Connections,
		PacketBytes:   sr.PacketBytes,
		DurationSec:   sr.DurationSec,
		Static:        sr.Static,
		MinSpeed:      sr.MinSpeed,
		MaxSpeed:      sr.MaxSpeed,
		Seed:          sr.Seed,
		Reps:          sr.Reps,
		BatteryJoules: sr.BatteryJoules,
		Audit:         sr.Audit,
		ShadowSigmaDB: sr.ShadowSigmaDB,
		GroupSize:     sr.GroupSize,
		GroupRadiusM:  sr.GroupRadiusM,
		TimeoutSec:    sr.TimeoutSec,
	}
}

// Cells expands the sweep into its cells in canonical grid order, each
// validated and keyed by scenario.CanonicalKey — the same content address
// the jobs API and result cache use.
func (sr SweepRequest) Cells() ([]SweepCell, error) {
	g, err := sr.grid()
	if err != nil {
		return nil, err
	}
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	cells := make([]SweepCell, 0, len(pts))
	for i, pt := range pts {
		req := sr.baseJobRequest()
		req.Scheme = pt.Scheme.String()
		if pt.HasRate {
			req.PacketRate = pt.Rate
		}
		if pt.HasPause {
			if pt.Static() {
				req.Static = true
				req.PauseSec = nil
			} else {
				req.Static = false
				req.PauseSec = ptrOf(pt.PauseSec)
			}
		}
		if pt.HasFault {
			req.FaultPreset = pt.FaultPreset
		}
		if pt.HasGossip {
			req.GossipFanout = pt.GossipFanout
		}
		if pt.HasChannel {
			req.Channel = pt.Channel
		}
		if pt.HasMobility {
			req.Mobility = pt.Mobility
		}
		if pt.HasPolicy {
			req.Policy = pt.Policy
		}
		if pt.HasTxPower {
			req.TxPowerDBm = pt.TxPowerDBm
		}
		cfg, reps, err := req.Config()
		if err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d: %w", i, err)
		}
		key, err := cfg.CanonicalKey(reps)
		if err != nil {
			return nil, fmt.Errorf("serve: sweep cell %d: %w", i, err)
		}
		cells = append(cells, SweepCell{Index: i, Req: req, Key: key, cfg: cfg, reps: reps})
	}
	return cells, nil
}

func ptrOf[T any](v T) *T { return &v }

// SweepKey content-addresses a whole sweep: the hex SHA-256 over the
// canonical version stamp and every cell key in expansion order. Two
// sweeps with the same key produce byte-identical aggregate documents.
func SweepKey(cells []SweepCell) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep|v=%d", scenario.CanonicalVersion)
	for _, c := range cells {
		h.Write([]byte("|"))
		h.Write([]byte(c.Key))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cell sources: how a cell's result bytes were obtained.
const (
	CellSourceComputed  = "computed"    // executed (locally or on a fleet worker)
	CellSourceCache     = "local_cache" // coordinator/local result cache hit
	CellSourcePeerCache = "peer_cache"  // filled from a fleet worker's cache probe
)

// CellStatus is the per-cell view exposed by the sweep status API and the
// SSE stream.
type CellStatus struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	State  State  `json:"state"`
	Source string `json:"source,omitempty"` // computed | local_cache | peer_cache
	Worker string `json:"worker,omitempty"` // fleet worker URL that supplied the cell
}

// Sweep is one admitted sweep: an expanded grid executing as a unit. All
// mutable state is guarded by mu.
type Sweep struct {
	ID  string
	Key string

	cells   []SweepCell
	timeout time.Duration

	mu        sync.Mutex
	state     State
	err       string
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cellStats []CellStatus
	completed int
	computed  int
	localHits int
	peerHits  int
	retries   int
	result    []byte
	cancel    context.CancelCauseFunc
	subs      map[int]chan SweepEvent
	nextSub   int
}

// SweepStatus is the poll/SSE view of a sweep. CellStates is populated on
// the detail endpoint and omitted from list/SSE snapshots.
type SweepStatus struct {
	ID          string       `json:"id"`
	State       State        `json:"state"`
	Key         string       `json:"key"`
	Cells       int          `json:"cells"`
	Completed   int          `json:"completed"`
	Computed    int          `json:"computed"`
	LocalHits   int          `json:"local_cache_hits"`
	PeerHits    int          `json:"peer_cache_hits"`
	Retries     int          `json:"retries"`
	CacheHit    bool         `json:"cache_hit"`
	Error       string       `json:"error,omitempty"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   time.Time    `json:"started_at,omitempty"`
	FinishedAt  time.Time    `json:"finished_at,omitempty"`
	CellStates  []CellStatus `json:"cell_states,omitempty"`
}

// SweepEvent is one SSE frame of a sweep's event stream: "cell" when a
// cell completes, "sweep" on lifecycle transitions.
type SweepEvent struct {
	Type  string      `json:"type"`
	Cell  *CellStatus `json:"cell,omitempty"`
	Sweep SweepStatus `json:"sweep"`
}

func (sw *Sweep) status() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.statusLocked()
}

func (sw *Sweep) statusLocked() SweepStatus {
	return SweepStatus{
		ID:          sw.ID,
		State:       sw.state,
		Key:         sw.Key,
		Cells:       len(sw.cells),
		Completed:   sw.completed,
		Computed:    sw.computed,
		LocalHits:   sw.localHits,
		PeerHits:    sw.peerHits,
		Retries:     sw.retries,
		CacheHit:    sw.cacheHit,
		Error:       sw.err,
		SubmittedAt: sw.submitted,
		StartedAt:   sw.started,
		FinishedAt:  sw.finished,
	}
}

// detailStatus is status plus a copy of every cell's state.
func (sw *Sweep) detailStatus() SweepStatus {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	st := sw.statusLocked()
	st.CellStates = append([]CellStatus(nil), sw.cellStats...)
	return st
}

// State returns the sweep's lifecycle state.
func (sw *Sweep) State() State {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.state
}

// Result returns the aggregate result document (nil unless StateDone).
func (sw *Sweep) Result() []byte {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.result
}

// broadcastLocked fans an event to subscribers; callers hold sw.mu.
func (sw *Sweep) broadcastLocked(ev SweepEvent) {
	for _, ch := range sw.subs {
		select {
		case ch <- ev:
		default: // subscriber stalled; it resyncs from the next event
		}
	}
}

// subscribe registers an event listener primed with the current snapshot.
func (sw *Sweep) subscribe() (<-chan SweepEvent, func()) {
	ch := make(chan SweepEvent, 256)
	sw.mu.Lock()
	if sw.subs == nil {
		sw.subs = make(map[int]chan SweepEvent)
	}
	id := sw.nextSub
	sw.nextSub++
	sw.subs[id] = ch
	ch <- SweepEvent{Type: "sweep", Sweep: sw.statusLocked()}
	sw.mu.Unlock()
	return ch, func() {
		sw.mu.Lock()
		delete(sw.subs, id)
		sw.mu.Unlock()
	}
}

// cellRunning marks a cell dispatched/executing.
func (sw *Sweep) cellRunning(i int) {
	sw.mu.Lock()
	sw.cellStats[i].State = StateRunning
	sw.mu.Unlock()
}

// cellDone records a completed cell, its source and the worker that
// supplied it, then broadcasts a "cell" event.
func (sw *Sweep) cellDone(i int, source, worker string) {
	sw.mu.Lock()
	cs := &sw.cellStats[i]
	cs.State = StateDone
	cs.Source = source
	cs.Worker = worker
	sw.completed++
	switch source {
	case CellSourceComputed:
		sw.computed++
	case CellSourceCache:
		sw.localHits++
	case CellSourcePeerCache:
		sw.peerHits++
	}
	snap := *cs
	sw.broadcastLocked(SweepEvent{Type: "cell", Cell: &snap, Sweep: sw.statusLocked()})
	sw.mu.Unlock()
}

// cellRetried counts one retry-on-worker-loss for the status page.
func (sw *Sweep) cellRetried(i int) {
	sw.mu.Lock()
	sw.cellStats[i].State = StateQueued
	sw.retries++
	sw.mu.Unlock()
}

// setState transitions the sweep, refusing to leave a terminal state, and
// broadcasts a "sweep" event. Reports whether the transition happened.
func (sw *Sweep) setState(st State, apply func(*Sweep)) bool {
	sw.mu.Lock()
	if sw.state.Terminal() {
		sw.mu.Unlock()
		return false
	}
	sw.state = st
	if apply != nil {
		apply(sw)
	}
	sw.broadcastLocked(SweepEvent{Type: "sweep", Sweep: sw.statusLocked()})
	sw.mu.Unlock()
	return true
}

// SweepResult is the aggregate document of GET /api/v1/sweeps/{id}/result:
// every cell's request, content address and canonical result bytes in
// expansion order. Marshaling is deterministic, and each embedded Result
// is exactly the bytes the jobs API (and the serial CLI path) produce for
// that cell — so the whole document is byte-identical no matter where or
// in what order the cells ran, which cells were cache- or peer-filled,
// and how many workers the fleet had.
type SweepResult struct {
	V     int               `json:"v"`
	Key   string            `json:"key"`
	Cells []SweepCellResult `json:"cells"`
}

// SweepCellResult is one cell of the aggregate document.
type SweepCellResult struct {
	Index   int             `json:"index"`
	Key     string          `json:"key"`
	Request JobRequest      `json:"request"`
	Result  json.RawMessage `json:"result"`
}

// MarshalSweepResult renders the aggregate document from per-cell result
// bytes indexed like cells.
func MarshalSweepResult(key string, cells []SweepCell, results [][]byte) ([]byte, error) {
	out := SweepResult{V: scenario.CanonicalVersion, Key: key, Cells: make([]SweepCellResult, len(cells))}
	for i, c := range cells {
		out.Cells[i] = SweepCellResult{Index: c.Index, Key: c.Key, Request: c.Req, Result: results[i]}
	}
	return json.Marshal(out)
}

// sweepExecutor obtains the canonical result bytes of every unique key of
// a sweep. The local executor computes on this process; the fleet
// executor shards across remote workers. Implementations report each key
// through run's hooks and return the first error.
type sweepExecutor interface {
	runKeys(ctx context.Context, run *sweepRun) error
}

// sweepKey is one canonical key of a sweep: the first cell carrying it,
// which is the one executors resolve, and the index of every cell that
// shares its bytes.
type sweepKey struct {
	cell  *SweepCell
	cells []int
}

// groupKeys groups cells by canonical key in first-appearance order, so
// no config is resolved twice per sweep however the grid was phrased.
func groupKeys(cells []SweepCell) []sweepKey {
	at := make(map[string]int)
	var keys []sweepKey
	for i := range cells {
		k, ok := at[cells[i].Key]
		if !ok {
			k = len(keys)
			at[cells[i].Key] = k
			keys = append(keys, sweepKey{cell: &cells[i]})
		}
		keys[k].cells = append(keys[k].cells, i)
	}
	return keys
}

// sweepRun is one execution of a sweep's unique keys. Its hooks fan each
// key's state and bytes out to every cell sharing the key; results is
// indexed like the sweep's cells and complete once the executor returns
// nil.
type sweepRun struct {
	s       *Server
	sw      *Sweep
	keys    []sweepKey
	results [][]byte
}

// running marks key k's cells dispatched.
func (r *sweepRun) running(k int) {
	for _, i := range r.keys[k].cells {
		r.sw.cellRunning(i)
	}
}

// retried marks key k's cells queued again after a worker loss.
func (r *sweepRun) retried(k int) {
	for _, i := range r.keys[k].cells {
		r.sw.cellRetried(i)
	}
}

// done records key k's bytes, their source and the worker that supplied
// them ("" when local) for each of its cells.
func (r *sweepRun) done(k int, body []byte, source, worker string) {
	for _, i := range r.keys[k].cells {
		r.results[i] = body
		r.s.mFleetCells.Inc(source)
		r.sw.cellDone(i, source, worker)
	}
}

// SubmitSweep validates, expands and admits one sweep. The error is
// non-nil only for OutcomeInvalid. Admitted sweeps begin executing
// immediately on their own goroutine; intake is bounded by QueueDepth
// concurrently-running sweeps.
func (s *Server) SubmitSweep(req SweepRequest) (*Sweep, Outcome, error) {
	cells, err := req.Cells()
	if err != nil {
		s.mRejected.Inc("invalid")
		return nil, OutcomeInvalid, err
	}
	key := SweepKey(cells)
	timeout := req.jobTimeout(s.opts)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mRejected.Inc("draining")
		return nil, OutcomeDraining, nil
	}
	// Whole-sweep memoization: an identical grid resubmission is served
	// from the result cache without touching a single cell.
	if cached, ok := s.cache.Get(sweepCacheKey(key)); ok {
		sw := s.newSweepLocked(key, cells, timeout)
		sw.state = StateDone
		sw.cacheHit = true
		sw.result = cached
		sw.finished = sw.submitted
		for i := range sw.cellStats {
			sw.cellStats[i].State = StateDone
			sw.cellStats[i].Source = CellSourceCache
		}
		sw.completed = len(cells)
		sw.localHits = len(cells)
		s.registerSweepLocked(sw)
		s.mSweepsSubmitted.Inc()
		s.mCacheHits.Inc()
		s.mSweepsTerminal.Inc(string(StateDone))
		return sw, OutcomeCacheHit, nil
	}
	running := 0
	for _, id := range s.sweepOrder {
		if !s.sweeps[id].State().Terminal() {
			running++
		}
	}
	if running >= s.opts.QueueDepth {
		s.mRejected.Inc("queue_full")
		return nil, OutcomeQueueFull, nil
	}
	sw := s.newSweepLocked(key, cells, timeout)
	sw.state = StateQueued
	s.registerSweepLocked(sw)
	s.mSweepsSubmitted.Inc()
	s.wg.Add(1)
	go s.runSweep(sw)
	return sw, OutcomeAccepted, nil
}

// jobTimeout resolves the per-cell deadline like JobRequest.Timeout.
func (sr SweepRequest) jobTimeout(opts Options) time.Duration {
	jr := JobRequest{TimeoutSec: sr.TimeoutSec}
	return jr.Timeout(opts.DefaultTimeout, opts.MaxTimeout)
}

// sweepCacheKey namespaces sweep documents inside the shared result
// cache. Cell results are stored under bare canonical keys; the prefix
// keeps the two address spaces disjoint.
func sweepCacheKey(key string) string { return "sweep:" + key }

func (s *Server) newSweepLocked(key string, cells []SweepCell, timeout time.Duration) *Sweep {
	s.nextSweepID++
	sw := &Sweep{
		ID:        fmt.Sprintf("sweep-%d", s.nextSweepID),
		Key:       key,
		cells:     cells,
		timeout:   timeout,
		submitted: time.Now().UTC(),
		cellStats: make([]CellStatus, len(cells)),
	}
	for i, c := range cells {
		sw.cellStats[i] = CellStatus{Index: i, Key: c.Key, State: StateQueued}
	}
	return sw
}

func (s *Server) registerSweepLocked(sw *Sweep) {
	s.sweeps[sw.ID] = sw
	s.sweepOrder = append(s.sweepOrder, sw.ID)
}

// Sweep looks up a sweep by ID.
func (s *Server) Sweep(id string) (*Sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := s.sweeps[id]
	return sw, ok
}

// SweepStatuses snapshots every sweep in submission order.
func (s *Server) SweepStatuses() []SweepStatus {
	s.mu.Lock()
	sweeps := make([]*Sweep, len(s.sweepOrder))
	for i, id := range s.sweepOrder {
		sweeps[i] = s.sweeps[id]
	}
	s.mu.Unlock()
	out := make([]SweepStatus, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.status()
	}
	return out
}

// CancelSweep requests cancellation of a running sweep. Returns false if
// the sweep is unknown or already terminal.
func (s *Server) CancelSweep(id string) bool {
	s.mu.Lock()
	sw, ok := s.sweeps[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	sw.mu.Lock()
	cancel := sw.cancel
	terminal := sw.state.Terminal()
	sw.mu.Unlock()
	if terminal || cancel == nil {
		return false
	}
	cancel(errCanceledByUser)
	return true
}

// runSweep drives one sweep to a terminal state on its own goroutine.
func (s *Server) runSweep(sw *Sweep) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	defer cancel(nil)
	if !sw.setState(StateRunning, func(sw *Sweep) {
		sw.started = time.Now().UTC()
		sw.cancel = cancel
	}) {
		return
	}
	s.mSweepsRunning.Inc()
	run := &sweepRun{s: s, sw: sw, keys: groupKeys(sw.cells), results: make([][]byte, len(sw.cells))}
	err := s.sweepExec.runKeys(ctx, run)
	s.mSweepsRunning.Dec()
	if err != nil {
		state, msg := classifySweepError(ctx, err)
		s.finishSweep(sw, state, msg, nil)
		return
	}
	body, err := MarshalSweepResult(sw.Key, sw.cells, run.results)
	if err != nil {
		s.finishSweep(sw, StateFailed, fmt.Sprintf("marshal sweep result: %v", err), nil)
		return
	}
	s.cache.Put(sweepCacheKey(sw.Key), body)
	s.finishSweep(sw, StateDone, "", body)
}

// classifySweepError maps an executor error to a terminal state, mirroring
// classifyRunError's cancel/shutdown/deadline distinctions.
func classifySweepError(ctx context.Context, err error) (State, string) {
	if errors.Is(err, scenario.ErrCanceled) || errors.Is(err, context.Canceled) {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errCanceledByUser):
			return StateCanceled, "canceled by client"
		case errors.Is(cause, errShutdown):
			return StateCanceled, "server shutting down"
		case cause != nil && !errors.Is(cause, context.Canceled):
			return StateCanceled, cause.Error()
		}
		return StateCanceled, err.Error()
	}
	return StateFailed, err.Error()
}

func (s *Server) finishSweep(sw *Sweep, state State, msg string, result []byte) {
	if !sw.setState(state, func(sw *Sweep) {
		sw.err = msg
		sw.result = result
		sw.finished = time.Now().UTC()
		sw.cancel = nil
	}) {
		return
	}
	s.mSweepsTerminal.Inc(string(state))
}

// localSweepExecutor computes keys on this process, at most
// Options.Workers at a time through scenario.ForEach: result cache first,
// then the same engine call path jobs use.
type localSweepExecutor struct{ s *Server }

func (l localSweepExecutor) runKeys(ctx context.Context, run *sweepRun) error {
	return scenario.ForEach(ctx, l.s.opts.Workers, len(run.keys), func(ctx context.Context, k int) error {
		run.running(k)
		body, source, err := l.execCell(ctx, run.sw, run.keys[k].cell)
		if err != nil {
			return err
		}
		run.done(k, body, source, "")
		return nil
	})
}

// execCell resolves one cell: result cache first, then a real engine run
// under the sweep's per-cell deadline. The returned bytes are exactly
// what the jobs API would serve for the same canonical key.
func (l localSweepExecutor) execCell(ctx context.Context, sw *Sweep, c *SweepCell) ([]byte, string, error) {
	s := l.s
	if cached, ok := s.cache.Get(c.Key); ok {
		return cached, CellSourceCache, nil
	}
	tctx, tcancel := context.WithTimeoutCause(ctx, sw.timeout, context.DeadlineExceeded)
	defer tcancel()
	s.mRuns.Inc(channelLabel(c.cfg), policyLabel(c.cfg))
	agg, err := s.runFn(tctx, c.cfg, c.reps, s.opts.SimWorkers)
	if err != nil {
		if errors.Is(err, scenario.ErrCanceled) {
			if errors.Is(context.Cause(tctx), context.DeadlineExceeded) {
				return nil, "", fmt.Errorf("cell %d (%s): cell deadline exceeded", c.Index, c.Key)
			}
			// Plain cancellation: surface it untouched so the sweep-level
			// cause (user cancel vs shutdown) decides the terminal message.
			return nil, "", err
		}
		return nil, "", fmt.Errorf("cell %d (%s): %w", c.Index, c.Key, err)
	}
	body, err := MarshalResult(c.Key, c.reps, agg)
	if err != nil {
		return nil, "", fmt.Errorf("cell %d (%s): marshal result: %w", c.Index, c.Key, err)
	}
	s.cache.Put(c.Key, body)
	return body, CellSourceComputed, nil
}
