package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseSweepRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.rejectBody(w, err)
		return
	}
	sw, outcome, err := s.SubmitSweep(req)
	switch outcome {
	case OutcomeInvalid:
		writeError(w, http.StatusBadRequest, "%v", err)
	case OutcomeQueueFull:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.opts.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, "sweep intake full (%d sweeps in flight); retry later", s.opts.QueueDepth)
	case OutcomeDraining:
		writeError(w, http.StatusServiceUnavailable, "server is draining; not accepting sweeps")
	case OutcomeCacheHit:
		writeJSON(w, http.StatusOK, sw.status())
	default: // OutcomeAccepted
		writeJSON(w, http.StatusAccepted, sw.status())
	}
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.SweepStatuses())
}

// sweepFromPath resolves the {id} wildcard, answering 404 itself on a miss.
func (s *Server) sweepFromPath(w http.ResponseWriter, r *http.Request) (*Sweep, bool) {
	id := r.PathValue("id")
	sw, ok := s.Sweep(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return nil, false
	}
	return sw, true
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.sweepFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, sw.detailStatus())
	}
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepFromPath(w, r)
	if !ok {
		return
	}
	st := sw.status()
	switch {
	case !st.State.Terminal():
		writeError(w, http.StatusConflict, "sweep %s is %s; result not ready", sw.ID, st.State)
	case st.State != StateDone:
		writeError(w, http.StatusConflict, "sweep %s is %s: %s", sw.ID, st.State, st.Error)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Rcast-Key", sw.Key)
		if st.CacheHit {
			w.Header().Set("X-Rcast-Cache", "hit")
		} else {
			w.Header().Set("X-Rcast-Cache", "miss")
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(sw.Result())
	}
}

// handleSweepEvents streams sweep progress as server-sent events: the
// current snapshot immediately, a "cell" event per completed cell, and a
// "sweep" event on every lifecycle transition, ending when the sweep is
// terminal or the client disconnects.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepFromPath(w, r)
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

	ch, unsub := sw.subscribe()
	defer unsub()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			fl.Flush()
			if ev.Type == "sweep" && ev.Sweep.State.Terminal() {
				return
			}
		}
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweepFromPath(w, r)
	if !ok {
		return
	}
	if !s.CancelSweep(sw.ID) {
		writeError(w, http.StatusConflict, "sweep %s is %s; nothing to cancel", sw.ID, sw.State())
		return
	}
	writeJSON(w, http.StatusAccepted, sw.status())
}

// handleResultByKey serves raw cached result bytes by canonical key. A
// GET registration also answers HEAD, which is the fleet's cheap
// peer-cache probe: a coordinator HEADs its workers before computing a
// cell, and any 200 means the worker can serve the bytes immediately.
func (s *Server) handleResultByKey(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no cached result for key %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Rcast-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if r.Method != http.MethodHead {
		_, _ = w.Write(body)
	}
}
