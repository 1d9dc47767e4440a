package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/jobs             submit a job (202; 200 on cache hit)
//	GET  /api/v1/jobs             list job statuses
//	GET  /api/v1/jobs/{id}        poll one job's status
//	GET  /api/v1/jobs/{id}/result fetch the stored result bytes
//	GET  /api/v1/jobs/{id}/trace  fetch the NDJSON trace artifact (traced jobs)
//	GET  /api/v1/jobs/{id}/events live status stream (server-sent events)
//	POST /api/v1/jobs/{id}/cancel request cancellation
//	POST /api/v1/sweeps             submit a parameter-grid sweep (202; 200 on cache hit)
//	GET  /api/v1/sweeps             list sweep statuses
//	GET  /api/v1/sweeps/{id}        poll one sweep (includes per-cell states)
//	GET  /api/v1/sweeps/{id}/result fetch the aggregate sweep document
//	GET  /api/v1/sweeps/{id}/events live per-cell completion stream (SSE)
//	POST /api/v1/sweeps/{id}/cancel request sweep cancellation
//	GET  /api/v1/results/{key}      raw cached result bytes by canonical key
//	                                (HEAD probes existence; used for fleet
//	                                peer-cache fills)
//	GET  /api/v1/traces/summary     per-scheme trace-event tallies folded
//	                                from every traced job (live)
//	GET  /healthz                 liveness (503 while draining)
//	GET  /metrics                 Prometheus text exposition
//	     /debug/pprof/...         runtime profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /api/v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /api/v1/sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/result", s.handleSweepResult)
	mux.HandleFunc("GET /api/v1/sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("POST /api/v1/sweeps/{id}/cancel", s.handleSweepCancel)
	mux.HandleFunc("GET /api/v1/results/{key}", s.handleResultByKey)
	mux.HandleFunc("GET /api/v1/traces/summary", s.handleTracesSummary)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// errorBody is the uniform JSON error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// retryAfterSeconds renders a Retry-After hint: whole seconds, rounded
// up, never below 1. Truncation used to turn a sub-second hint into
// "Retry-After: 0", which well-behaved clients read as "retry
// immediately" — the opposite of backpressure.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// maxRequestBytes bounds a job or sweep submission body. Decoding stops
// once a body passes it, so one huge request cannot pin the daemon's
// memory; the client gets 413.
const maxRequestBytes = 1 << 20

// rejectBody answers a submission whose body failed to parse: 413 when it
// passed maxRequestBytes, 400 otherwise.
func (s *Server) rejectBody(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.mRejected.Inc("too_large")
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
		return
	}
	s.mRejected.Inc("bad_request")
	writeError(w, http.StatusBadRequest, "%v", err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseJobRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.rejectBody(w, err)
		return
	}
	job, outcome, err := s.Submit(req)
	switch outcome {
	case OutcomeInvalid:
		writeError(w, http.StatusBadRequest, "%v", err)
	case OutcomeQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", cap(s.queue))
	case OutcomeDraining:
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
	case OutcomeCacheHit:
		writeJSON(w, http.StatusOK, job.status())
	default: // OutcomeAccepted, OutcomeCoalesced
		writeJSON(w, http.StatusAccepted, job.status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statuses())
}

// jobFromPath resolves the {id} wildcard, answering 404 itself on a miss.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, job.status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	st := job.status()
	switch {
	case !st.State.Terminal():
		writeError(w, http.StatusConflict, "job %s is %s; result not ready", job.ID, st.State)
	case st.State != StateDone:
		writeError(w, http.StatusConflict, "job %s is %s: %s", job.ID, st.State, st.Error)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Rcast-Key", job.Key)
		if st.CacheHit {
			w.Header().Set("X-Rcast-Cache", "hit")
		} else {
			w.Header().Set("X-Rcast-Cache", "miss")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(job.Result())
	}
}

// handleTrace serves the packet-lifecycle trace artifact of a traced,
// completed job as NDJSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if !job.TraceRequested() {
		writeError(w, http.StatusNotFound, "job %s was not submitted with trace=true", job.ID)
		return
	}
	st := job.status()
	data, captured := job.Trace()
	switch {
	case !st.State.Terminal():
		writeError(w, http.StatusConflict, "job %s is %s; trace not ready", job.ID, st.State)
	case !captured:
		// Terminal but never executed (e.g. canceled while queued): there
		// is no artifact, partial or otherwise.
		writeError(w, http.StatusConflict, "job %s is %s and never executed: %s", job.ID, st.State, st.Error)
	default:
		// Failed, canceled and timed-out traced jobs serve their partial
		// trace — the run you most want to debug — flagged via header.
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Rcast-Key", job.Key)
		if st.State != StateDone {
			w.Header().Set("X-Rcast-Trace", "partial")
		} else {
			w.Header().Set("X-Rcast-Trace", "complete")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	}
}

// handleEvents streams status transitions as server-sent events: the
// current snapshot immediately, then every change, ending when the job
// reaches a terminal state or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	ch, unsub := job.subscribe()
	defer unsub()
	for {
		select {
		case <-r.Context().Done():
			return
		case st := <-ch:
			data, err := json.Marshal(st)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: state\ndata: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
			if st.State.Terminal() {
				return
			}
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	if !s.Cancel(job.ID) {
		writeError(w, http.StatusConflict, "job %s is %s; nothing to cancel", job.ID, job.State())
		return
	}
	writeJSON(w, http.StatusAccepted, job.status())
}

// healthBody is the /healthz payload.
type healthBody struct {
	Status        string `json:"status"` // "ok" or "draining"
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	JobsRunning   int64  `json:"jobs_running"`
	CacheEntries  int    `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.QueueDepth()
	body := healthBody{
		Status:        "ok",
		QueueDepth:    depth,
		QueueCapacity: capacity,
		JobsRunning:   s.mRunning.Value(),
		CacheEntries:  s.cache.Len(),
	}
	code := http.StatusOK
	if s.Draining() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.Write(w)
}
