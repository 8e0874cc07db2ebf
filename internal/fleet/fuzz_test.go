package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"emerald/internal/sweep"
)

// FuzzValidatePayload drives the PUT /fleet/results/{key} gate with an
// arbitrary key and body: whatever it accepts lands in the store
// byte-identical and re-derives the key it was filed under; whatever
// it refuses leaves the store untouched.
func FuzzValidatePayload(f *testing.F) {
	res, err := fakeResult(cs1Spec(1))
	if err != nil {
		f.Fatal(err)
	}
	payload, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	payload = append(payload, '\n')
	f.Add(cs1Spec(1).Key(), payload)            // belongs under its key
	f.Add(cs1Spec(2).Key(), payload)            // mislabeled
	f.Add(cs1Spec(1).Key(), []byte("not json")) // garbage
	f.Add("../../etc/passwd", payload)
	f.Add(cs1Spec(1).Key(), payload[:len(payload)/2])

	f.Fuzz(func(t *testing.T, key string, body []byte) {
		st, err := sweep.NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		self := "http://127.0.0.1:1"
		n, err := New(Config{Self: self, Logf: t.Logf}, st)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPut, "/fleet/results/x", bytes.NewReader(body))
		req.SetPathValue("key", key)
		rec := httptest.NewRecorder()
		n.handleReplicate(rec, req)

		keys, err := st.Keys()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusNoContent {
			if len(keys) != 0 {
				t.Fatalf("refused (%d) payload reached the store as %v", rec.Code, keys)
			}
			return
		}
		stored, ok, err := st.Get(key)
		if err != nil || !ok || !bytes.Equal(stored, body) {
			t.Fatalf("accepted payload is not stored byte-identical (ok=%v err=%v)", ok, err)
		}
		var got sweep.Result
		if err := json.Unmarshal(stored, &got); err != nil || got.Spec.Key() != key {
			t.Fatalf("accepted payload does not re-derive its key %q (err %v)", key, err)
		}
	})
}
