package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func openTestJournal(t *testing.T, path string) (*Journal, []PendingJob) {
	t.Helper()
	j, pending, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() }) //nolint:errcheck
	return j, pending
}

// journalLines returns the journal's non-empty lines.
func journalLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if l != "" {
			lines = append(lines, l)
		}
	}
	return lines
}

// Replay must surface exactly the accepted-but-unfinished jobs, and
// compaction must shrink the log to just their accept records.
func TestJournalReplayAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, pending := openTestJournal(t, path)
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending jobs", len(pending))
	}
	if err := j.Accept("j1", wlSpec(1)); err != nil {
		t.Fatal(err)
	}
	j.Start("j1")
	j.Done("j1")
	if err := j.Accept("j2", wlSpec(2)); err != nil {
		t.Fatal(err)
	}
	j.Start("j2") // started but never finished: still pending
	if err := j.Accept("j3", wlSpec(3)); err != nil {
		t.Fatal(err)
	}
	j.Cancel("j3")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, pending = openTestJournal(t, path)
	if len(pending) != 1 || pending[0].ID != "j2" || pending[0].Spec.Workload != 2 {
		t.Fatalf("pending = %+v, want exactly j2", pending)
	}
	// Compaction rewrote the log down to j2's accept record.
	lines := journalLines(t, path)
	if len(lines) != 1 || !strings.Contains(lines[0], `"accept"`) || !strings.Contains(lines[0], `"j2"`) {
		t.Fatalf("compacted journal = %q, want a single j2 accept", lines)
	}
}

// A crash mid-append leaves a torn final record; replay must keep
// everything before it and discard the tail, never erroring out.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openTestJournal(t, path)
	if err := j.Accept("j1", wlSpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("j2", wlSpec(2)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record in half, as a crash mid-write would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	_, pending := openTestJournal(t, path)
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending after torn tail = %+v, want just j1", pending)
	}
}

// A corrupt record in the middle ends the trusted prefix: later records
// are discarded too (they may depend on the lost one).
func TestJournalStopsAtFirstCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	good1, err := encodeRecord(journalRec{T: "accept", ID: "j1", Spec: &Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 1}})
	if err != nil {
		t.Fatal(err)
	}
	good2, err := encodeRecord(journalRec{T: "accept", ID: "j2", Spec: &Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(good1)
	buf.WriteString("deadbeef {this is not a valid record}\n")
	buf.Write(good2)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, pending := openTestJournal(t, path)
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending = %+v, want just j1 (replay stops at corruption)", pending)
	}
}

// A single flipped bit must fail the record's checksum.
func TestJournalChecksumRejectsBitFlip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _ := openTestJournal(t, path)
	if err := j.Accept("j1", wlSpec(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip a bit inside the JSON body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, pending := openTestJournal(t, path)
	if len(pending) != 0 {
		t.Fatalf("pending = %+v, want none (checksum must reject the record)", pending)
	}
}

// The full crash-recovery path: a previous process accepted three jobs,
// finished storing one result but died before journaling it done.
// Recover must complete that job from the cache and requeue exactly the
// other two, preserving IDs and keeping new submissions collision-free.
func TestRunnerRecoverRequeuesIncomplete(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	st, err := NewStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}

	// The "crashed" process's journal: j1's result landed in the store
	// but its done record was lost with the page cache.
	j1, _ := openTestJournal(t, path)
	for w := 1; w <= 3; w++ {
		if err := j1.Accept(wlJobID(w), wlSpec(w)); err != nil {
			t.Fatal(err)
		}
	}
	j1.Start("j1")
	if _, err := st.Put(wlSpec(1).Key(), &Result{Spec: wlSpec(1).Canonical(), Cycles: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart.
	j2, pending := openTestJournal(t, path)
	if len(pending) != 3 {
		t.Fatalf("pending = %+v, want all three jobs", pending)
	}
	r := NewRunner(st, RunnerConfig{Workers: 2, Journal: j2, Exec: okExec})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.Shutdown(ctx) //nolint:errcheck
	})
	requeued, cached := r.Recover(pending)
	if requeued != 2 || cached != 1 {
		t.Fatalf("Recover = (%d requeued, %d cached), want (2, 1)", requeued, cached)
	}
	if j := waitTerminal(t, r, "j1"); j.State != JobDone || !j.Cached || !j.Recovered {
		t.Fatalf("j1 = %+v, want recovered cache-hit completion", j)
	}
	for _, id := range []string{"j2", "j3"} {
		if j := waitTerminal(t, r, id); j.State != JobDone || j.Cached || !j.Recovered {
			t.Fatalf("%s = %+v, want recovered re-execution", id, j)
		}
	}
	// nextID advanced past the recovered IDs.
	nj, err := r.Submit(wlSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if nj.ID != "j4" {
		t.Fatalf("post-recovery submission got ID %s, want j4", nj.ID)
	}

	// Once everything finished, a reopen finds nothing pending.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	waitTerminal(t, r, nj.ID)
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, pending = openTestJournal(t, path)
	if len(pending) != 0 {
		t.Fatalf("pending after clean drain = %+v, want none", pending)
	}
}

// wlJobID mirrors the runner's ID sequence for workload w submissions
// made in order.
func wlJobID(w int) string {
	return "j" + string(rune('0'+w))
}

// A journaling runner's normal lifecycle leaves no pending jobs behind.
func TestRunnerJournalsCompleteLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	st, err := NewStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := openTestJournal(t, path)
	r := NewRunner(st, RunnerConfig{Workers: 1, Journal: j, Exec: okExec})
	job, err := r.Submit(wlSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, r, job.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// The accept record carries the key Submit hashed, once.
	lines := journalLines(t, path)
	if rec, ok := decodeRecord([]byte(lines[0])); !ok || rec.T != "accept" || rec.Key != job.Key || rec.Key != wlSpec(1).Key() {
		t.Fatalf("first record = %+v (ok %v), want the accept of key %s", rec, ok, job.Key)
	}
	_, pending := openTestJournal(t, path)
	if len(pending) != 0 {
		t.Fatalf("pending = %+v, want none after a clean run", pending)
	}
}
