package service

import (
	"context"
	"fmt"
	"io"

	"repro/internal/journal"
	"repro/internal/runner"
	"repro/internal/service/api"
	"repro/internal/sim"
)

// This file is the service side of the crash-safe run journal: the hooks
// that journal accepted runs, completed cells and cache inserts as they
// happen, and the boot-time recovery that restores finished runs and
// resumes unfinished ones from their last completed cell.

// --- journal hooks ----------------------------------------------------

// journalAppend appends one record, counting (never panicking on)
// failures: a full disk degrades crash recovery, not serving.
func (s *Server) journalAppend(rec journal.Record) {
	if s.cfg.Journal == nil {
		return
	}
	if err := s.cfg.Journal.Append(rec); err != nil {
		s.journalErrs.Add(1)
	}
}

// journalCache wraps the result cache so every insert is also journaled
// as a RecCache record — the WAL's copy of the result payload. RecCell
// records then only carry the fingerprint, so a result is journaled once
// no matter how many runs repeat the cell.
type journalCache struct {
	inner *resultCache
	s     *Server
}

func (c journalCache) Get(key string) (sim.Result, bool) { return c.inner.Get(key) }

func (c journalCache) Put(key string, res sim.Result) {
	c.inner.Put(key, res)
	r := res
	c.s.journalAppend(journal.Record{Type: journal.RecCache, Key: key, Result: &r})
}

// runnerCache returns the cache to hand the grid runner: the raw result
// cache, or its journaling wrapper when a WAL is attached.
func (s *Server) runnerCache() runner.Cache {
	if s.cfg.Journal != nil {
		return journalCache{inner: s.cache, s: s}
	}
	return s.cache
}

// cellProgress builds the per-cell progress hook: each finished cell is
// journaled (crash safety) and published to the run's event stream
// (liveness) the moment it lands, not when the run ends.
func (s *Server) cellProgress(runID string, keys []string) func(runner.Progress) {
	return func(p runner.Progress) {
		cr := CellResult{Bench: p.Bench, Config: p.Config, CacheHit: p.CacheHit}
		if p.Err != nil {
			cr.Error = p.Err.Error()
		} else {
			cr.Result = p.Result
		}
		rec := journal.Record{
			Type: journal.RecCell, RunID: runID, Index: p.Index,
			Err: cr.Error, CacheHit: p.CacheHit,
		}
		if p.Index >= 0 && p.Index < len(keys) {
			rec.Key = keys[p.Index]
		}
		s.journalAppend(rec)
		s.publishEvent(runID, api.CellEvent{Index: p.Index, Cell: &cr})
	}
}

// --- journal recovery -------------------------------------------------

// replayInfo captures what boot-time recovery did, for /metrics.
type replayInfo struct {
	stats   journal.ReplayStats
	seconds float64
	runs    int // journaled runs recovered (finished or resumed)
	resumed int // unfinished runs re-executed
}

// RecoverJournal replays a WAL image into the server: cache records
// refill the content-addressed result cache, finished runs are restored
// as queryable records, and unfinished runs are re-executed — their
// journaled cells now cache hits, so a restart resumes from the last
// completed cell instead of re-simulating, with bit-identical output.
// Call once at boot, before serving traffic.
func (s *Server) RecoverJournal(ctx context.Context, recs []journal.Record, stats journal.ReplayStats) (resumed int, err error) {
	start := now()
	type runState struct {
		rec    journal.Record
		cells  map[int]journal.Record
		finish *journal.Record
	}
	var order []string
	states := make(map[string]*runState)
	for i := range recs {
		rec := recs[i]
		switch rec.Type {
		case journal.RecCache:
			if rec.Key != "" && rec.Result != nil {
				s.cache.Put(rec.Key, *rec.Result)
			}
		case journal.RecRun:
			if rec.RunID == "" || rec.Req == nil {
				continue
			}
			if states[rec.RunID] == nil {
				order = append(order, rec.RunID)
			}
			states[rec.RunID] = &runState{rec: rec, cells: make(map[int]journal.Record)}
		case journal.RecCell:
			if st := states[rec.RunID]; st != nil {
				st.cells[rec.Index] = rec
			}
		case journal.RecFinish:
			if st := states[rec.RunID]; st != nil {
				st.finish = &recs[i]
			}
		}
	}

	var firstErr error
	for _, id := range order {
		st := states[id]
		s.restoreRun(id, st.rec)
		jobs, buildErr := s.buildJobs(st.rec.Req)
		if buildErr != nil {
			// The journaled request no longer builds (e.g. a renamed
			// config across versions): fail the record, keep serving.
			s.finishRun(id, StatusFailed, nil, 0, "journal replay: "+buildErr.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("service: replaying run %s: %w", id, buildErr)
			}
			continue
		}
		if st.finish != nil {
			results, hits := s.recoveredResults(jobs, st.cells)
			if st.finish.Status != StatusDone {
				results = nil // partial grids are not reconstructed
			}
			s.finishRun(id, st.finish.Status, results, hits, st.finish.Err)
			continue
		}
		// Unfinished run: re-execute. Completed cells were journaled into
		// the cache above, so they replay as hits; only the missing tail
		// simulates.
		s.openStream(id)
		s.performRun(ctx, id, jobs)
		resumed++
	}
	info := &replayInfo{stats: stats, seconds: now().Sub(start).Seconds(),
		runs: len(order), resumed: resumed}
	s.replay.Store(info)
	return resumed, firstErr
}

// recoveredResults rebuilds a finished run's per-cell results from its
// journaled cell records plus the replayed cache.
func (s *Server) recoveredResults(jobs []runner.Job, cells map[int]journal.Record) ([]CellResult, int) {
	results := make([]CellResult, len(jobs))
	hits := 0
	for i := range jobs {
		cr := CellResult{Bench: jobs[i].Profile.Name, Config: jobs[i].Name}
		rec, ok := cells[i]
		switch {
		case !ok:
			cr.Error = "cell outcome not recovered from journal"
		case rec.Err != "":
			cr.Error = rec.Err
		default:
			cr.CacheHit = rec.CacheHit
			if res, found := s.cache.Get(rec.Key); found {
				r := res
				r.Config = jobs[i].Name
				cr.Result = &r
				hits++
			} else {
				cr.Error = "cell result evicted before recovery"
			}
		}
		results[i] = cr
	}
	return results, hits
}

// restoreRun recreates a journaled run record under its original ID and
// advances the ID sequence past it, so new runs never collide.
func (s *Server) restoreRun(id string, rec journal.Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var seq uint64
	if _, err := fmt.Sscanf(id, "run-%d", &seq); err == nil && seq > s.nextID {
		s.nextID = seq
	}
	if s.runs[id] == nil {
		s.order = append(s.order, id)
	}
	s.runs[id] = &Run{ID: id, Status: StatusQueued, Created: rec.Created, Cells: rec.Cells}
	s.evictRunsLocked()
}

// renderJournalMetrics appends the WAL recovery gauges to /metrics.
func renderJournalMetrics(w io.Writer, info *replayInfo, appendErrs uint64) {
	fmt.Fprintln(w, "# HELP simserved_journal_append_errors_total Journal appends that failed.")
	fmt.Fprintln(w, "# TYPE simserved_journal_append_errors_total counter")
	fmt.Fprintf(w, "simserved_journal_append_errors_total %d\n", appendErrs)
	if info == nil {
		return
	}
	fmt.Fprintln(w, "# HELP simserved_journal_replay_seconds Wall-clock time of boot journal replay.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_seconds gauge")
	fmt.Fprintf(w, "simserved_journal_replay_seconds %g\n", info.seconds)
	fmt.Fprintln(w, "# HELP simserved_journal_replay_records Journal records replayed at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_records gauge")
	fmt.Fprintf(w, "simserved_journal_replay_records %d\n", info.stats.Records)
	fmt.Fprintln(w, "# HELP simserved_journal_replay_truncated_bytes Torn-tail bytes discarded at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_truncated_bytes gauge")
	fmt.Fprintf(w, "simserved_journal_replay_truncated_bytes %d\n", info.stats.TruncatedBytes)
	fmt.Fprintln(w, "# HELP simserved_journal_replay_runs Journaled runs recovered at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_replay_runs gauge")
	fmt.Fprintf(w, "simserved_journal_replay_runs %d\n", info.runs)
	fmt.Fprintln(w, "# HELP simserved_journal_resumed_runs Unfinished runs re-executed at boot.")
	fmt.Fprintln(w, "# TYPE simserved_journal_resumed_runs gauge")
	fmt.Fprintf(w, "simserved_journal_resumed_runs %d\n", info.resumed)
}
