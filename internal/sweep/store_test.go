package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"emerald/internal/soc"
)

func testResult() *Result {
	return &Result{
		Spec: Spec{Kind: KindCS1, Scale: "smoke", Model: 2, Config: "BAS", Mbps: 1333}.Canonical(),
		CS1:  &soc.Results{MeanGPUCycles: 123456.5, DisplayServed: 42},
	}
}

// A stored result must come back byte-for-byte on every Get, and
// decode to the same values.
func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := testResult()
	key := r.Spec.Key()

	if _, ok, err := st.Get(key); err != nil || ok {
		t.Fatalf("Get on empty store = (%v, %v), want miss", ok, err)
	}
	written, err := st.Put(key, r)
	if err != nil {
		t.Fatal(err)
	}
	got1, ok, err := st.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v)", ok, err)
	}
	got2, _, _ := st.Get(key)
	if !bytes.Equal(written, got1) || !bytes.Equal(got1, got2) {
		t.Fatal("stored bytes are not identical across lookups")
	}
	var dec Result
	if err := json.Unmarshal(got1, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.CS1 == nil || dec.CS1.MeanGPUCycles != r.CS1.MeanGPUCycles {
		t.Fatalf("decoded result = %+v, want %+v", dec.CS1, r.CS1)
	}
	if keys, err := st.Verified(); err != nil || len(keys) != 1 {
		t.Fatalf("Verified = (%v, %v), want one key", keys, err)
	}
}

// Keys enumerates stored keys (sorted), Delete removes them, and
// PutRaw reinstalls the exact bytes a peer served — the primitives the
// fleet's anti-entropy sweep is built on.
func TestStoreKeysDeletePutRaw(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1 := testResult()
	r2 := &Result{
		Spec:   Spec{Kind: KindCS2Sweep, Scale: "smoke", Workload: 3}.Canonical(),
		Cycles: []uint64{10, 20, 30},
	}
	k1, k2 := r1.Spec.Key(), r2.Spec.Key()
	payload1, err := st.Put(k1, r1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(k2, r2); err != nil {
		t.Fatal(err)
	}

	keys, err := st.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("Keys = (%v, %v), want both keys", keys, err)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("Keys not sorted: %v", keys)
	}

	if err := st.Delete(k1); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(k1); err != nil {
		t.Fatalf("Delete of an absent key = %v, want nil", err)
	}
	if _, ok, _ := st.Get(k1); ok {
		t.Fatal("deleted key still reads back")
	}
	if err := st.Delete("../nope"); err == nil {
		t.Fatal("Delete accepted a malformed key")
	}

	// PutRaw restores the replica byte-for-byte.
	if err := st.PutRaw(k1, payload1); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(k1)
	if err != nil || !ok || !bytes.Equal(got, payload1) {
		t.Fatalf("PutRaw round trip = (ok=%v, err=%v), bytes equal=%v",
			ok, err, bytes.Equal(got, payload1))
	}
}

// A corrupt blob must not count as a cached result: Verified skips files
// whose integrity footer fails, and Keys still lists them so
// anti-entropy can find and repair them.
func TestStoreLenSkipsCorrupt(t *testing.T) {
	st, key := corruptStore(t, func(data []byte) []byte {
		data[len(data)/3] ^= 0x01
		return data
	})
	if v, err := st.Verified(); err != nil || len(v) != 0 {
		t.Fatalf("Verified with one corrupt blob = (%v, %v), want none", v, err)
	}
	keys, err := st.Keys()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("Keys with one corrupt blob = (%v, %v), want [%s]", keys, err, key)
	}
	// A fresh Put heals it and Verified lists it again.
	if _, err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if v, err := st.Verified(); err != nil || len(v) != 1 {
		t.Fatalf("Verified after heal = (%v, %v), want one key", v, err)
	}
}

// Malformed keys (wrong length, path traversal) must be rejected, not
// turned into file paths.
func TestStoreRejectsBadKeys(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "abc", "../../etc/passwd", string(make([]byte, 64))} {
		if _, _, err := st.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
		if _, err := st.Put(key, testResult()); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
	}
}

func BenchmarkStoreRoundTrip(b *testing.B) {
	st, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := testResult()
	key := r.Spec.Key()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put(key, r); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := st.Get(key); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// storeFiles lists the names in a store's directory.
func storeFiles(t *testing.T, st *Store) []string {
	t.Helper()
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// A write whose rename fails (the key's path is a directory) reports
// the failure and leaves no temp file behind.
func TestStoreFailedRenameLeavesNoTempFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testResult().Spec.Key()
	if err := os.Mkdir(st.path(key), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put(key, testResult()); err == nil {
		t.Fatal("Put over a directory succeeded")
	}
	if got, want := storeFiles(t, st), []string{key + ".json"}; !slices.Equal(got, want) {
		t.Fatalf("store holds %v after a failed Put, want only %v", got, want)
	}
}

// A successful Put leaves exactly the key's file: the temp file is gone
// by the rename.
func TestStorePutLeavesOnlyTheKeysFile(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testResult().Spec.Key()
	if _, err := st.Put(key, testResult()); err != nil {
		t.Fatal(err)
	}
	if got, want := storeFiles(t, st), []string{key + ".json"}; !slices.Equal(got, want) {
		t.Fatalf("store holds %v after Put, want only %v", got, want)
	}
}
