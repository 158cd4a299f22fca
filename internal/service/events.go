package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/service/api"
)

// This file holds the per-run server-sent event streams: every finished cell
// is published to its run's stream the moment it lands, and
// GET /v1/runs/{id}/events tails the stream or replays a finished run.

// stream is one run's event log and its wakeup fan-out. Subscribers read
// history at their own cursor and park on wake; every publish closes and
// replaces wake, so no subscriber can miss an event or block the
// publisher — a slow or disconnected client costs nothing.
type stream struct {
	history []api.CellEvent
	done    bool
	wake    chan struct{}
}

// openStream registers an event stream for a run.
func (s *Server) openStream(runID string) {
	s.streamMu.Lock()
	s.streams[runID] = &stream{wake: make(chan struct{})}
	s.streamMu.Unlock()
}

// publishEvent appends one event to a run's stream and wakes its
// subscribers. The terminal event (Done=true) also ends the stream and
// drops it from the table — late subscribers replay the finished run's
// record instead.
func (s *Server) publishEvent(runID string, ev api.CellEvent) {
	s.streamMu.Lock()
	st := s.streams[runID]
	if st == nil {
		s.streamMu.Unlock()
		return
	}
	ev.RunID = runID
	ev.Seq = len(st.history)
	st.history = append(st.history, ev)
	if ev.Done {
		st.done = true
		delete(s.streams, runID)
	}
	close(st.wake)
	st.wake = make(chan struct{})
	s.streamMu.Unlock()
}

// dropStream removes a run's stream without a terminal event (the run
// record never reached running — e.g. cancelled while queued). Parked
// subscribers are woken and see done.
func (s *Server) dropStream(runID string) {
	s.streamMu.Lock()
	if st := s.streams[runID]; st != nil {
		st.done = true
		delete(s.streams, runID)
		close(st.wake)
		st.wake = make(chan struct{})
	}
	s.streamMu.Unlock()
}

// snapshotStream returns the events at or past cursor, the wakeup channel
// to park on, and whether the stream has ended.
func (s *Server) snapshotStream(st *stream, cursor int) ([]api.CellEvent, <-chan struct{}, bool) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	evs := st.history[cursor:]
	return evs, st.wake, st.done
}

// handleRunEvents is GET /v1/runs/{id}/events: a server-sent event
// stream of per-cell results as they land, ending with a terminal "done"
// event. A run that already finished replays its recorded results. A
// client disconnect tears down only the stream — the run itself is owned
// by the submitting request and proceeds to completion.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.streamMu.Lock()
	st := s.streams[id]
	s.streamMu.Unlock()

	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	if st == nil {
		// No live stream: replay the finished run's record, if any.
		snap, found := s.snapshotRun(id)
		if !found {
			writeError(w, http.StatusNotFound, "unknown run ID")
			return
		}
		if snap.Finished == nil {
			// Queued with no stream yet: nothing to tail; report the
			// gap rather than hanging forever.
			writeError(w, http.StatusConflict, "run has no event stream yet; retry shortly")
			return
		}
		startEventStream(w, fl)
		seq := 0
		for i := range snap.Results {
			cr := snap.Results[i]
			writeEvent(w, fl, api.CellEvent{RunID: id, Seq: seq, Index: i, Cell: &cr})
			seq++
		}
		writeEvent(w, fl, api.CellEvent{RunID: id, Seq: seq, Index: -1, Done: true, Status: snap.Status})
		return
	}

	startEventStream(w, fl)
	cursor := 0
	for {
		evs, wake, done := s.snapshotStream(st, cursor)
		for i := range evs {
			if err := writeEvent(w, fl, evs[i]); err != nil {
				return // client is gone; the run continues without us
			}
		}
		cursor += len(evs)
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return // disconnect tears down the stream, never the run
		case <-wake:
		}
	}
}

// startEventStream commits the SSE response headers. The immediate flush
// matters: subscribers block on the response headers, and the first cell
// of a long run may be minutes away.
func startEventStream(w http.ResponseWriter, fl http.Flusher) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
}

// writeEvent writes one SSE frame and flushes it to the client.
func writeEvent(w io.Writer, fl http.Flusher, ev api.CellEvent) error {
	name := "cell"
	if ev.Done {
		name = "done"
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("service: encoding event: %w", err)
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return fmt.Errorf("service: writing event: %w", err)
	}
	fl.Flush()
	return nil
}
