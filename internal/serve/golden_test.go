package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"github.com/reprolab/hirise/internal/serve"
)

// goldenBodies returns the request bodies of the store-key corpus with
// the key each was stored under before the job description moved into
// internal/spec.
func goldenBodies(t *testing.T) (names []string, bodies []json.RawMessage, keys []string) {
	t.Helper()
	b, err := os.ReadFile("../spec/testdata/keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []struct {
		Name  string          `json:"name"`
		Serve json.RawMessage `json:"serve"`
		Key   string          `json:"key"`
	}
	if err := json.Unmarshal(b, &corpus); err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus {
		if e.Serve != nil {
			names, bodies, keys = append(names, e.Name), append(bodies, e.Serve), append(keys, e.Key)
		}
	}
	if len(bodies) == 0 {
		t.Fatal("no request bodies in the key corpus")
	}
	return names, bodies, keys
}

// TestGoldenKeys: every body in the corpus is admitted under its
// recorded store key, so results cached by older daemons keep serving.
func TestGoldenKeys(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{QueueDepth: 256})
	names, bodies, keys := goldenBodies(t)
	for i, body := range bodies {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st serve.Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: HTTP %d (%v)", names[i], resp.StatusCode, err)
		}
		if st.Key != keys[i] {
			t.Errorf("%s: key %s, want %s", names[i], st.Key, keys[i])
		}
		cancel(t, ts.URL, st.ID)
	}
}

// cancel deletes a job so corpus submissions do not keep the worker busy.
func cancel(t *testing.T, base, id string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}
