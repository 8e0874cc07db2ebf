package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"emerald/internal/mem"
)

// Checkpoint captures resumable state: the API stream, the index of the
// next op to execute, and a full snapshot of simulated memory. A
// checkpoint taken at a frame boundary plus a state-building replay of
// the op prefix reconstructs the exact machine state of the original
// run, which is what lets detailed-timing regions start anywhere in a
// long scenario (the paper's §4.2 graphics checkpointing, ODIN-style).
type Checkpoint struct {
	Trace *Trace
	Pages map[uint64][]byte
	Cycle uint64
	Frame int
	// OpIndex is the number of trace ops already executed when the
	// snapshot was taken; Trace.Ops[:OpIndex] is the state-building
	// prefix and Trace.Ops[OpIndex:] the remainder to replay.
	OpIndex int
}

// NewCheckpoint snapshots memory and the trace recorded so far (the
// whole trace is the executed prefix: OpIndex = t.Len()).
func NewCheckpoint(t *Trace, m *mem.Memory, cycle uint64, frame int) *Checkpoint {
	return NewCheckpointAt(t, m, cycle, frame, t.Len())
}

// NewCheckpointAt snapshots memory against an explicit op prefix of a
// larger trace — the sampled-simulation pass records the full trace
// once, then marks each frame boundary by its op index.
func NewCheckpointAt(t *Trace, m *mem.Memory, cycle uint64, frame, opIndex int) *Checkpoint {
	return &Checkpoint{Trace: t, Pages: m.SnapshotPages(), Cycle: cycle, Frame: frame, OpIndex: opIndex}
}

// Serialized layout: an 8-byte versioned header, a gob payload with the
// pages in ascending address order, and an integrity footer carrying
// the payload length and the SHA-256 of header+payload (the same
// torn/corrupt-file protection the sweep store's footer gives result
// blobs). Encoding the page map in sorted order makes the bytes — and
// therefore Digest — a pure function of the captured state, where gob's
// randomized map iteration used to produce different bytes for the
// same state on every run.
const (
	ckptMagic   = "EMCKPT\n"
	ckptVersion = 2
	ckptHdrLen  = 8                           // magic + version byte
	ckptFtrLen  = 8 + sha256.Size             // payload length + digest
	ckptMinLen  = ckptHdrLen + ckptFtrLen + 1 // smallest well-formed file
)

// pageRecord is one page in the serialized form.
type pageRecord struct {
	Page uint64
	Data []byte
}

// checkpointFile is the gob payload.
type checkpointFile struct {
	Frame   int
	Cycle   uint64
	OpIndex int
	Trace   *Trace
	Pages   []pageRecord
}

// sortedPages returns the snapshot pages in ascending address order.
func (c *Checkpoint) sortedPages() []pageRecord {
	recs := make([]pageRecord, 0, len(c.Pages))
	for p, d := range c.Pages {
		recs = append(recs, pageRecord{Page: p, Data: d})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Page < recs[j].Page })
	return recs
}

// encode produces header+payload — the bytes the footer digest covers.
func (c *Checkpoint) encode() ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(ckptMagic)
	b.WriteByte(ckptVersion)
	file := checkpointFile{
		Frame: c.Frame, Cycle: c.Cycle, OpIndex: c.OpIndex,
		Trace: c.Trace, Pages: c.sortedPages(),
	}
	if err := gob.NewEncoder(&b).Encode(&file); err != nil {
		return nil, fmt.Errorf("trace: checkpoint encode: %w", err)
	}
	return b.Bytes(), nil
}

// Save serializes the checkpoint deterministically: identical state
// always produces identical bytes.
func (c *Checkpoint) Save(w io.Writer) error {
	hp, err := c.encode()
	if err != nil {
		return err
	}
	if _, err := w.Write(hp); err != nil {
		return err
	}
	_, err = w.Write(footer(hp))
	return err
}

// footer seals header+payload: the payload length and the SHA-256.
func footer(hp []byte) []byte {
	var ftr [ckptFtrLen]byte
	binary.BigEndian.PutUint64(ftr[:8], uint64(len(hp)-ckptHdrLen))
	sum := sha256.Sum256(hp)
	copy(ftr[8:], sum[:])
	return ftr[:]
}

// Digest returns the SHA-256 hex of the canonical serialized form —
// stable across runs (pages are sorted), so it can key caches.
func (c *Checkpoint) Digest() (string, error) {
	hp, err := c.encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(hp)
	return hex.EncodeToString(sum[:]), nil
}

// LoadCheckpoint deserializes a checkpoint written by Save, verifying
// the header and integrity footer: a file that is not a checkpoint, is
// from a different format version, or was torn or corrupted fails
// loudly here instead of replaying garbage state.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: checkpoint: %w", err)
	}
	if len(data) < ckptMinLen {
		return nil, fmt.Errorf("trace: checkpoint: truncated file (%d bytes)", len(data))
	}
	if string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("trace: checkpoint: bad magic (not a checkpoint file)")
	}
	if v := data[len(ckptMagic)]; v != ckptVersion {
		return nil, fmt.Errorf("trace: checkpoint: format version %d (want %d)", v, ckptVersion)
	}
	hp, ftr := data[:len(data)-ckptFtrLen], data[len(data)-ckptFtrLen:]
	if got, want := uint64(len(hp)-ckptHdrLen), binary.BigEndian.Uint64(ftr[:8]); got != want {
		return nil, fmt.Errorf("trace: checkpoint: torn file: payload is %d bytes, footer says %d", got, want)
	}
	if sum := sha256.Sum256(hp); !bytes.Equal(sum[:], ftr[8:]) {
		return nil, fmt.Errorf("trace: checkpoint: integrity check failed (corrupt payload)")
	}
	var file checkpointFile
	if err := gob.NewDecoder(bytes.NewReader(hp[ckptHdrLen:])).Decode(&file); err != nil {
		return nil, fmt.Errorf("trace: checkpoint: %w", err)
	}
	// The footer proves the bytes are what some writer sealed, not that
	// the writer was Save: hold the fields to what Save can produce.
	if file.Trace == nil || file.Frame < 0 || file.OpIndex < 0 || file.OpIndex > file.Trace.Len() {
		return nil, fmt.Errorf("trace: checkpoint: frame %d / op index %d do not fit the embedded trace", file.Frame, file.OpIndex)
	}
	c := &Checkpoint{
		Trace: file.Trace, Pages: make(map[uint64][]byte, len(file.Pages)),
		Cycle: file.Cycle, Frame: file.Frame, OpIndex: file.OpIndex,
	}
	last := int64(-1)
	for _, rec := range file.Pages {
		if int64(rec.Page) <= last {
			return nil, fmt.Errorf("trace: checkpoint: page records out of order at page %d", rec.Page)
		}
		if len(rec.Data) > mem.PageSize {
			return nil, fmt.Errorf("trace: checkpoint: page %d holds %d bytes (page size %d)", rec.Page, len(rec.Data), mem.PageSize)
		}
		last = int64(rec.Page)
		c.Pages[rec.Page] = rec.Data
	}
	return c, nil
}

// RestoreMemory replaces the target memory's contents with the
// snapshot: the page set is reconciled (Reset), so pages the target had
// materialized but the checkpoint lacks do not survive as stale state.
func (c *Checkpoint) RestoreMemory(m *mem.Memory) {
	m.Reset()
	for _, rec := range c.sortedPages() {
		m.Write(rec.Page*mem.PageSize, rec.Data)
	}
}

// Bytes is a convenience round trip used by tests and tools.
func (c *Checkpoint) Bytes() ([]byte, error) {
	var b bytes.Buffer
	if err := c.Save(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
