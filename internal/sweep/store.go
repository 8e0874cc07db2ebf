package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// Store is the on-disk content-addressed result cache: one JSON file
// per result, named by the spec's SHA-256 key. Writes go through a
// temp file + rename so concurrent readers never observe a partial
// result, and a cache hit returns the stored bytes unmodified —
// byte-for-byte identical across lookups.
//
// Every file carries an integrity footer (a trailing comment line with
// the payload's length and SHA-256) written by Put and verified by
// Get. A file that fails verification — bit rot, truncation, a
// foreign write — reads as a cache miss rather than serving garbage;
// the next Put simply overwrites it.
type Store struct {
	dir   string
	fault atomic.Pointer[faultCell]
}

// StoreFault injects write-path faults for chaos testing. OnWrite
// receives the full file image about to hit disk (payload + integrity
// footer) and may rewrite it — a truncated return models a torn write,
// a mutated byte models bit rot — or fail outright, modeling ENOSPC.
// The footer makes every mutation visible: a damaged file verifies as
// a cache miss, never as a result.
type StoreFault interface {
	OnWrite(key string, file []byte) ([]byte, error)
}

// faultCell wraps the interface so it fits an atomic.Pointer.
type faultCell struct{ f StoreFault }

// SetFault installs a write-fault injector (nil clears it). Reads are
// deliberately not hooked: the integrity footer already turns any
// damaged write into a read-side miss, so injecting at the write seam
// exercises the same recovery paths real corruption would.
func (s *Store) SetFault(f StoreFault) {
	if f == nil {
		s.fault.Store(nil)
		return
	}
	s.fault.Store(&faultCell{f: f})
}

// footerPrefix opens the integrity footer line appended after the JSON
// payload. '#' is not valid JSON, so a footer-less decoder would choke
// loudly rather than silently accept a stripped file.
const footerPrefix = "# emerald-store v1 "

// footerFor renders the integrity footer line for a payload.
func footerFor(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return fmt.Appendf(nil, "%slen=%d sha256=%s\n", footerPrefix, len(payload), hex.EncodeToString(sum[:]))
}

// verifyFooter splits a stored file into its payload by locating and
// checking the integrity footer. ok=false means the file is corrupt,
// truncated, or predates footers — treat as a miss.
func verifyFooter(data []byte) (payload []byte, ok bool) {
	i := bytes.LastIndex(data, []byte("\n"+footerPrefix))
	if i < 0 {
		return nil, false
	}
	payload = data[:i+1] // the payload's own trailing newline
	return payload, bytes.Equal(data[i+1:], footerFor(payload))
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("sweep: store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ValidKey reports whether key looks like a SHA-256 hex digest. Keys
// become file names, so this also guards against path traversal.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, c := range key {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get returns the stored result payload for key (the exact bytes Put
// returned, without the integrity footer), or ok=false on a miss. A
// file whose footer is missing or fails verification is a miss, not an
// error: corruption must never masquerade as a result.
func (s *Store) Get(key string) (data []byte, ok bool, err error) {
	if !ValidKey(key) {
		return nil, false, fmt.Errorf("sweep: malformed result key %q", key)
	}
	data, err = os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: read result %s: %w", key, err)
	}
	payload, valid := verifyFooter(data)
	if !valid {
		return nil, false, nil
	}
	return payload, true, nil
}

// Put stores a result under key and returns the canonical JSON payload
// served by every future Get (the on-disk file additionally carries
// the integrity footer). The write is atomic: a rename replaces any
// concurrent writer's work with an identical payload, so
// last-writer-wins is harmless.
func (s *Store) Put(key string, r *Result) ([]byte, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("sweep: malformed result key %q", key)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal result: %w", err)
	}
	data = append(data, '\n')
	if err := s.writeFile(key, data); err != nil {
		return nil, err
	}
	return data, nil
}

// PutRaw stores an already-encoded result payload (the exact bytes a
// peer's Get returned) under key, re-deriving the integrity footer.
// Replication uses this so a blob stays byte-identical across every
// node that holds it; like Put, the write is atomic.
func (s *Store) PutRaw(key string, payload []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("sweep: malformed result key %q", key)
	}
	return s.writeFile(key, payload)
}

// writeFile atomically writes payload + integrity footer under key,
// routing the full file image through the installed fault injector (if
// any) first. The temp-file + rename dance means a reader never sees a
// half-written file — a torn write can only come from the injector.
func (s *Store) writeFile(key string, payload []byte) error {
	file := append(append([]byte(nil), payload...), footerFor(payload)...)
	if cell := s.fault.Load(); cell != nil && cell.f != nil {
		var err error
		if file, err = cell.f.OnWrite(key, file); err != nil {
			return fmt.Errorf("sweep: store result: %w", err)
		}
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("sweep: store result: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(file); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: store result: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: store result: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		return fmt.Errorf("sweep: store result: %w", err)
	}
	return nil
}

// Keys enumerates every stored key, sorted, without verifying file
// contents: a key whose file is corrupt is still listed (its Get
// reports the corruption), which is exactly what the fleet's
// anti-entropy sweep needs to find blobs worth repairing.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		if name, found := strings.CutSuffix(e.Name(), ".json"); found && ValidKey(name) {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete removes the stored result for key. Deleting a key that is not
// stored is not an error — the end state is the same.
func (s *Store) Delete(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("sweep: malformed result key %q", key)
	}
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("sweep: delete result %s: %w", key, err)
	}
	return nil
}

// Len counts stored results whose integrity footer verifies. A corrupt
// or truncated blob reads as a cache miss everywhere else, so it must
// not count as a cached result here either.
func (s *Store) Len() (int, error) {
	keys, err := s.Keys()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, key := range keys {
		if _, ok, err := s.Get(key); err == nil && ok {
			n++
		}
	}
	return n, nil
}
