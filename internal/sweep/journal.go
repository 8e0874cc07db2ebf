package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// Journal is the runner's durable write-ahead log: one append-only
// text file recording every job's lifecycle (accept, start, done,
// fail, cancel) so a crashed daemon can requeue exactly the jobs that
// never reached a terminal state. Deterministic re-execution makes
// requeue equivalent to resume, and the content-addressed store makes
// re-running an already-stored job a cache hit — so replay needs no
// result state, only job identity.
//
// Record format, one per line:
//
//	<crc32-hex> <json>\n
//
// where the checksum covers the JSON bytes. Appends never rewrite the
// file (no temp-file/rename on the hot path); accepts are fsynced
// before Submit returns, so an acknowledged job survives kill -9.
// Progress records (start/done/fail/cancel) ride on the OS write-back:
// losing one merely requeues a job whose result is already stored —
// the worker then finds the cache hit and re-journals completion.
// Replay stops at the first corrupt or truncated record (a torn tail
// from a crash mid-append); compaction on open rewrites the log to
// just the still-pending accepts via temp file + atomic rename.
//
// A nil *Journal is a valid no-op: every method is nil-receiver-safe,
// so the runner holds a bare field and journaling is opt-in.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// journalRec is one WAL line's JSON body.
type journalRec struct {
	T    string `json:"t"` // accept | start | done | fail | cancel
	ID   string `json:"id"`
	Key  string `json:"key,omitempty"`
	Spec *Spec  `json:"spec,omitempty"` // accept records only
	Err  string `json:"err,omitempty"`  // fail records only
}

// PendingJob is one job recovered from replay that a previous process
// accepted but never finished.
type PendingJob struct {
	ID   string
	Spec Spec
}

// OpenJournal replays the journal at path (which need not exist yet),
// returns the jobs left incomplete by the previous process in
// acceptance order, compacts the log down to just those records, and
// opens it for appending.
func OpenJournal(path string) (*Journal, []PendingJob, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("sweep: journal needs a path")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("sweep: journal dir: %w", err)
	}
	pending, err := replay(path)
	if err != nil {
		return nil, nil, err
	}
	if err := compact(path, pending); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	return &Journal{f: f}, pending, nil
}

// replay reads the journal and returns accepted-but-unfinished jobs in
// acceptance order. A corrupt or truncated record ends the replay:
// everything before it is trusted, everything after is discarded as a
// torn tail.
func replay(path string) ([]PendingJob, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: replay journal: %w", err)
	}
	defer f.Close()

	open := make(map[string]int) // job id -> index in order, -1 = closed
	var order []PendingJob
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		rec, ok := decodeRecord(sc.Bytes())
		if !ok {
			break // torn tail
		}
		switch rec.T {
		case "accept":
			if rec.Spec == nil || rec.ID == "" {
				continue
			}
			if _, dup := open[rec.ID]; dup {
				continue
			}
			open[rec.ID] = len(order)
			order = append(order, PendingJob{ID: rec.ID, Spec: *rec.Spec})
		case "done", "fail", "cancel":
			if i, ok := open[rec.ID]; ok && i >= 0 {
				order[i].ID = "" // closed; filtered below
				open[rec.ID] = -1
			}
		}
	}
	var pending []PendingJob
	for _, p := range order {
		if p.ID != "" {
			pending = append(pending, p)
		}
	}
	return pending, nil
}

// compact rewrites the journal to hold only the pending accepts, via
// temp file + fsync + atomic rename (compaction is off the hot path,
// so the rename discipline appends deliberately avoid is fine here).
func compact(path string, pending []PendingJob) error {
	var buf bytes.Buffer
	for i := range pending {
		p := pending[i]
		rec := journalRec{T: "accept", ID: p.ID, Key: p.Spec.Key(), Spec: &p.Spec}
		line, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("sweep: compact journal: %w", err)
	}
	if err := commitTemp(tmp, buf.Bytes(), true, path); err != nil {
		return fmt.Errorf("sweep: compact journal: %w", err)
	}
	return nil
}

// encodeRecord renders one WAL line: checksum, space, JSON, newline.
func encodeRecord(rec journalRec) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("sweep: encode journal record: %w", err)
	}
	line := make([]byte, 0, len(body)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(body))
	line = append(line, body...)
	line = append(line, '\n')
	return line, nil
}

// decodeRecord parses and checksum-verifies one line.
func decodeRecord(line []byte) (journalRec, bool) {
	var rec journalRec
	if len(line) < 10 || line[8] != ' ' {
		return rec, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != uint32(want) {
		return rec, false
	}
	if json.Unmarshal(body, &rec) != nil {
		return rec, false
	}
	return rec, true
}

// append writes one record; sync forces it to stable storage before
// returning (the accept path — an acknowledged job must survive
// kill -9; progress records tolerate write-back loss).
func (j *Journal) append(rec journalRec, sync bool) error {
	if j == nil {
		return nil
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("sweep: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("sweep: journal append: %w", err)
	}
	if sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("sweep: journal sync: %w", err)
		}
	}
	return nil
}

// Accept durably records job acceptance (fsync before return).
func (j *Journal) Accept(id string, spec Spec) error { return j.accept(id, spec.Key(), spec) }

// accept is Accept for a caller that already holds the spec's key.
func (j *Journal) accept(id, key string, spec Spec) error {
	return j.append(journalRec{T: "accept", ID: id, Key: key, Spec: &spec}, true)
}

// Start records an execution attempt beginning.
func (j *Journal) Start(id string) { j.append(journalRec{T: "start", ID: id}, false) } //nolint:errcheck

// Done records terminal success.
func (j *Journal) Done(id string) { j.append(journalRec{T: "done", ID: id}, false) } //nolint:errcheck

// Fail records terminal failure.
func (j *Journal) Fail(id, msg string) {
	j.append(journalRec{T: "fail", ID: id, Err: msg}, false) //nolint:errcheck
}

// Cancel records a queued job canceled before execution.
func (j *Journal) Cancel(id string) { j.append(journalRec{T: "cancel", ID: id}, false) } //nolint:errcheck

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
