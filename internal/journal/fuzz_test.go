package journal

import (
	"testing"

	"repro/internal/sim"
)

// FuzzJournalReplay throws arbitrary WAL images at the replay decoder.
// Replay must never panic, must account for every input byte as either
// replayed prefix or discarded tail, and must be idempotent: replaying
// the prefix it declared valid reproduces exactly the same records with
// no tail error. Truncated and corrupt tails are detected and skipped,
// never trusted.
func FuzzJournalReplay(f *testing.F) {
	// Seed from real frames alongside the committed corpus files, so the
	// fuzzer starts from deep inside the valid-WAL space.
	res := sim.Result{Bench: "gzip", Config: "SIE"}
	res.Core.Committed = 4096
	var clean []byte
	for _, rec := range []Record{
		{Type: RecRun, RunID: "run-0001", Cells: 2},
		{Type: RecCache, Key: "sha256:seed", Result: &res},
		{Type: RecCell, RunID: "run-0001", Index: 0, Key: "sha256:seed", CacheHit: true},
		{Type: RecFinish, RunID: "run-0001", Status: "done"},
	} {
		frame, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, frame...)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-3]) // torn final payload
	f.Add(clean[:5])            // torn header
	f.Add([]byte{})
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] ^= 0x40
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, stats := decodeRecords(data)
		if stats.Records != len(recs) {
			t.Fatalf("stats count %d records, replay returned %d", stats.Records, len(recs))
		}
		if stats.ValidBytes+stats.TruncatedBytes != int64(len(data)) {
			t.Fatalf("byte accounting broken: valid %d + truncated %d != input %d",
				stats.ValidBytes, stats.TruncatedBytes, len(data))
		}
		if stats.TruncatedBytes > 0 && stats.TailError == "" {
			t.Fatal("bytes discarded without a tail error")
		}
		if stats.TruncatedBytes == 0 && stats.TailError != "" {
			t.Fatalf("tail error %q on a fully-replayed log", stats.TailError)
		}
		// Idempotence: the declared-valid prefix must replay cleanly to
		// the same record count (crash recovery truncates to exactly it).
		again, againStats := decodeRecords(data[:stats.ValidBytes])
		if len(again) != len(recs) || againStats.TailError != "" || againStats.TruncatedBytes != 0 {
			t.Fatalf("valid prefix did not replay cleanly: %d vs %d records, %+v",
				len(again), len(recs), againStats)
		}
	})
}
