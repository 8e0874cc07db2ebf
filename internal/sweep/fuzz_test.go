package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the write-ahead log's
// replay: it must not panic, nothing after the first bad record may
// count (a torn tail ends the trusted prefix), and the compacted log
// the open leaves behind must replay to the very same pending jobs.
func FuzzJournalReplay(f *testing.F) {
	rec := func(r journalRec) []byte {
		line, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		return line
	}
	spec1, spec2 := wlSpec(1), wlSpec(2)
	a1 := rec(journalRec{T: "accept", ID: "j1", Key: spec1.Key(), Spec: &spec1})
	a2 := rec(journalRec{T: "accept", ID: "j2", Key: spec2.Key(), Spec: &spec2})
	flipped := append([]byte(nil), a1...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add([]byte{})
	f.Add(bytes.Join([][]byte{a1, a2, rec(journalRec{T: "done", ID: "j1"})}, nil))
	f.Add(append(append([]byte(nil), a1...), a2[:len(a2)-20]...))                               // torn tail
	f.Add(bytes.Join([][]byte{a1, []byte("deadbeef {this is not a valid record}\n"), a2}, nil)) // corrupt middle
	f.Add(flipped)
	f.Add(bytes.Join([][]byte{a1, a1, rec(journalRec{T: "cancel", ID: "j9"}), rec(journalRec{T: "accept", ID: "j3"})}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, pending, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		j.Close() //nolint:errcheck
		// What the open left behind replays to the same jobs.
		again, err := replay(path)
		if err != nil || !reflect.DeepEqual(pending, again) {
			t.Fatalf("compacted log replays differently (err %v):\n%+v\nthen\n%+v", err, pending, again)
		}

		// The trusted prefix: every line before the first one that fails
		// its checksum or does not parse.
		var prefix bytes.Buffer
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
		for sc.Scan() {
			if _, ok := decodeRecord(sc.Bytes()); !ok {
				break
			}
			prefix.Write(sc.Bytes())
			prefix.WriteByte('\n')
		}
		if err := os.WriteFile(path, prefix.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if trusted, err := replay(path); err != nil || !reflect.DeepEqual(pending, trusted) {
			t.Fatalf("records after the first bad one counted (err %v):\nfull   %+v\nprefix %+v", err, pending, trusted)
		}
	})
}

// FuzzStoreFooter puts arbitrary bytes on disk under a valid key: Get
// answers a miss or a hit whose bytes the integrity footer really
// vouches for — never a panic, never unverified bytes.
func FuzzStoreFooter(f *testing.F) {
	r := testResult()
	key := r.Spec.Key()
	seedStore, err := NewStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if _, err := seedStore.Put(key, r); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(seedStore.path(key))
	if err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(good)
	f.Add(flipped)
	f.Add(good[:len(good)/2])                                            // truncated
	f.Add(good[:bytes.LastIndex(good, []byte(footerPrefix))])            // footer stripped
	f.Add(bytes.Replace(good, []byte("sha256="), []byte("sha256=0"), 1)) // footer tampered
	f.Add([]byte("\n" + footerPrefix))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, file []byte) {
		st, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(key), file, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, ok, err := st.Get(key)
		if err != nil {
			t.Fatalf("Get on a readable file = %v, want a hit or a silent miss", err)
		}
		if !ok {
			if payload != nil {
				t.Fatalf("miss returned %d byte(s)", len(payload))
			}
			return
		}
		want := fmt.Appendf(append([]byte(nil), payload...), "%slen=%d sha256=%x\n", footerPrefix, len(payload), sha256.Sum256(payload))
		if !bytes.Equal(file, want) {
			t.Fatalf("Get served %d byte(s) the footer does not vouch for", len(payload))
		}
	})
}

// FuzzSpecKey decodes arbitrary JSON into a Spec. For every spec that
// validates, the result key is a function of what the simulation
// depends on and nothing else: Canonical is idempotent and still
// validates, Key is the canonical spec's key and a valid store key,
// Workers never moves it, and the canonical spec survives a JSON round
// trip with its key.
func FuzzSpecKey(f *testing.F) {
	for _, s := range []Spec{
		{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "DTB", Mbps: 1333, Workers: 4},
		{Kind: KindCS2Sweep, Scale: "quick", Workload: 3, Policy: "MLB"},
		{Kind: KindCS2Policy, Scale: "smoke", Workload: 1, Policy: "SOPT", SOPT: 4, Workers: 2},
		{Kind: KindRegion, Scale: "paper", Workload: 6, Frames: 8, Region: 3, Span: 2, Model: 1},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"kind":"cs2policy","scale":"smoke","workload":2,"policy":"DFSL","sopt":7}`))
	f.Add([]byte(`{"kind":"cs1","scale":"smoke","model":1,"config":"BAS","mbps":1,"workers":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		c := s.Canonical()
		if c.Canonical() != c {
			t.Fatalf("Canonical is not idempotent: %+v then %+v", c, c.Canonical())
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("canonical spec %+v does not validate: %v", c, err)
		}
		key := s.Key()
		if key != c.Key() || !ValidKey(key) {
			t.Fatalf("key %q: canonical key %q, valid %v", key, c.Key(), ValidKey(key))
		}
		for _, w := range []int{0, 1, 8, s.Workers + 1} {
			s.Workers = w
			if s.Key() != key {
				t.Fatalf("workers=%d moves the key", w)
			}
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(b, &back); err != nil || back.Key() != key {
			t.Fatalf("round trip of %s: err %v, key %q, want %q", b, err, back.Key(), key)
		}
	})
}
