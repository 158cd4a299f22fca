package journal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service/api"
	"repro/internal/sim"
)

// reopen closes j and replays the WAL from disk again.
func reopen(t *testing.T, j *Journal, dir string) (*Journal, []Record, ReplayStats) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	j2, recs, stats, err := OpenJournal(dir)
	if err != nil {
		t.Fatalf("reopening journal: %v", err)
	}
	return j2, recs, stats
}

// TestJournalRoundTrip appends a run's worth of records, reopens the WAL,
// and expects every record back in order with its payload intact.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, recs, stats, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || stats.Records != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}

	res := sim.Result{Bench: "gzip", Config: "SIE"}
	res.Core.Committed = 1234
	want := []Record{
		{Type: RecRun, RunID: "run-0001", Req: &api.RunRequest{Benchmarks: []string{"gzip"}},
			Cells: 2, Created: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)},
		{Type: RecCache, Key: "sha256:abc", Result: &res},
		{Type: RecCell, RunID: "run-0001", Index: 0, Key: "sha256:abc", CacheHit: true},
		{Type: RecCell, RunID: "run-0001", Index: 1, Err: "fault escaped"},
		{Type: RecFinish, RunID: "run-0001", Status: "done"},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %q: %v", rec.Type, err)
		}
	}

	j2, got, stats := reopen(t, j, dir)
	defer j2.Close()
	if stats.TruncatedBytes != 0 || stats.TailError != "" {
		t.Fatalf("clean log reported truncation: %+v", stats)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].RunID != want[i].RunID ||
			got[i].Index != want[i].Index || got[i].Key != want[i].Key ||
			got[i].Err != want[i].Err || got[i].CacheHit != want[i].CacheHit ||
			got[i].Status != want[i].Status {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[1].Result == nil || got[1].Result.Core.Committed != 1234 {
		t.Error("cache record lost its result payload")
	}
	if got[0].Req == nil || len(got[0].Req.Benchmarks) != 1 {
		t.Error("run record lost its request payload")
	}

	// The reopened journal must still accept appends (resume-and-continue).
	if err := j2.Append(Record{Type: RecFinish, RunID: "run-0002", Status: "done"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	j3, got, _ := reopen(t, j2, dir)
	defer j3.Close()
	if len(got) != len(want)+1 {
		t.Fatalf("after reopen append: replayed %d records, want %d", len(got), len(want)+1)
	}
}

// TestJournalTornTail crash-truncates the WAL at every byte offset inside
// the final record: replay must recover exactly the intact prefix,
// report the tail, and position the journal so the next append produces
// a clean log again.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	keep := []Record{
		{Type: RecRun, RunID: "run-0001", Cells: 1},
		{Type: RecCell, RunID: "run-0001", Index: 0, Key: "k"},
	}
	for _, rec := range keep {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	cleanLen := fileSize(t, j.Path())
	if err := j.Append(Record{Type: RecFinish, RunID: "run-0001", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	fullLen := fileSize(t, j.Path())
	full, err := os.ReadFile(j.Path())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	for cut := cleanLen + 1; cut < fullLen; cut++ {
		path := filepath.Join(t.TempDir(), journalName)
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, stats, err := OpenJournal(filepath.Dir(path))
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if len(recs) != len(keep) {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(recs), len(keep))
		}
		if stats.ValidBytes != cleanLen || stats.TruncatedBytes != cut-cleanLen {
			t.Fatalf("cut at %d: stats %+v, want valid=%d truncated=%d",
				cut, stats, cleanLen, cut-cleanLen)
		}
		if stats.TailError == "" {
			t.Fatalf("cut at %d: truncation reported no tail error", cut)
		}
		// Appending after recovery must leave a clean, fully-replayable log.
		if err := j2.Append(Record{Type: RecFinish, RunID: "run-0001", Status: "failed"}); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		j3, recs, stats := reopen(t, j2, filepath.Dir(path))
		j3.Close()
		if len(recs) != len(keep)+1 || stats.TailError != "" {
			t.Fatalf("cut at %d: post-recovery log not clean: %d records, %+v", cut, len(recs), stats)
		}
	}
}

// TestJournalCorruptFrame flips one payload byte mid-log: everything
// before the damaged frame replays, everything from it on is discarded.
func TestJournalCorruptFrame(t *testing.T) {
	dir := t.TempDir()
	j, _, _, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: RecRun, RunID: "run-0001"}); err != nil {
		t.Fatal(err)
	}
	firstLen := fileSize(t, j.Path())
	for i := 0; i < 3; i++ {
		if err := j.Append(Record{Type: RecCell, RunID: "run-0001", Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	data[firstLen+frameHeader] ^= 0xff // corrupt the second record's payload
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, recs, stats, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 1 || recs[0].Type != RecRun {
		t.Fatalf("replayed %d records past corruption, want 1", len(recs))
	}
	if stats.ValidBytes != firstLen || stats.TailError == "" {
		t.Fatalf("corruption stats %+v, want valid=%d with tail error", stats, firstLen)
	}
}

// TestJournalLengthBomb hand-writes a frame header claiming a
// multi-gigabyte payload: replay must refuse it as corruption instead of
// attempting the allocation.
func TestJournalLengthBomb(t *testing.T) {
	frame := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(frame[0:4], 1<<31)
	recs, stats := decodeRecords(frame)
	if len(recs) != 0 || stats.TailError == "" {
		t.Fatalf("length bomb replayed: %d records, %+v", len(recs), stats)
	}
}

// TestJournalClosedAppend verifies the closed-journal contract.
func TestJournalClosedAppend(t *testing.T) {
	j, _, _, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(Record{Type: RecRun}); err != ErrJournalClosed {
		t.Fatalf("append after close: %v, want ErrJournalClosed", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
