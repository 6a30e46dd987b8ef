package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"snowbma/internal/corpus"
	"snowbma/internal/service"
)

// TestFleetCorpusSharding submits one whole-corpus census to a
// two-worker fleet and checks the composite lifecycle end to end: the
// submission splits into per-worker index shards by design fingerprint,
// the parent settles when every shard finishes, and the merged report
// equals a single-engine census over the same seeded corpus.
func TestFleetCorpusSharding(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const designs = 6
	const seed = int64(5)

	w1 := startWorker(t, "", 2, 0)
	w2 := startWorker(t, "", 2, 0)
	c := New(Config{
		Workers:        map[string]string{"w1": w1.url, "w2": w2.url},
		HealthInterval: 50 * time.Millisecond,
		Logf:           t.Logf,
	})
	defer c.Shutdown(context.Background())

	st, err := c.Submit(service.JobSpec{
		Kind:   service.KindCorpus,
		Corpus: &service.CorpusSpec{Designs: designs, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards < 1 {
		t.Fatalf("corpus submission produced %d shards, want >= 1", st.Shards)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != service.StateDone {
		t.Fatalf("composite corpus job ended %s (%s)", final.State, final.Error)
	}

	// Every shard must belong to the parent and be terminal-done.
	shards := 0
	for _, js := range c.List() {
		if js.Parent == st.ID {
			shards++
			if js.State != service.StateDone {
				t.Errorf("shard %s ended %s (%s)", js.ID, js.State, js.Error)
			}
			if js.Kind != service.KindCorpus {
				t.Errorf("shard %s has kind %s", js.ID, js.Kind)
			}
		}
	}
	if shards != st.Shards {
		t.Errorf("listed %d shards, submission reported %d", shards, st.Shards)
	}

	raw, _, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var merged corpus.Report
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatalf("merged corpus report: %v", err)
	}

	// Ground truth: one engine, same corpus.
	cen, err := corpus.New(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := cen.Run(context.Background(),
		corpus.NewSeeded(corpus.SeedOptions{Designs: designs, Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	if merged.Designs != whole.Designs || merged.Exposed != whole.Exposed ||
		merged.Covered != whole.Covered || merged.Protected != whole.Protected ||
		merged.Matches != whole.Matches || merged.DualHits != whole.DualHits ||
		merged.BytesTotal != whole.BytesTotal || merged.Frames != whole.Frames ||
		merged.FramesScanned != whole.FramesScanned || merged.DedupHits != whole.DedupHits {
		t.Errorf("fleet-merged headline diverges from single-engine census:\nfleet: %+v\nlocal: %+v",
			merged, whole)
	}
	byID := map[string]corpus.DesignResult{}
	for _, dr := range whole.Results {
		byID[dr.ID] = dr
	}
	for _, dr := range merged.Results {
		w, ok := byID[dr.ID]
		if !ok {
			t.Fatalf("fleet report holds unknown design %.24s", dr.ID)
		}
		if !reflect.DeepEqual(dr, w) {
			t.Errorf("design %.24s: fleet %+v != local %+v", dr.ID, dr, w)
		}
	}
}

// TestErrorShapeParity pins the unified HTTP error envelope: the same
// invalid submission gets byte-identical {"error": ...} bodies and
// status codes from a worker engine's API and the fleet coordinator's
// mirror API — decode failures and every kind's spec validation alike.
func TestErrorShapeParity(t *testing.T) {
	eng, err := service.Open(service.Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Shutdown(context.Background())
	serve := httptest.NewServer(eng.Handler())
	defer serve.Close()

	c := New(Config{
		Workers:        map[string]string{"w1": serve.URL},
		HealthInterval: time.Hour, // no monitor noise during the table
	})
	defer c.Shutdown(context.Background())
	mirror := httptest.NewServer(c.Handler())
	defer mirror.Close()

	post := func(t *testing.T, base, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	oversized := `{"kind":"attack","tenant":"` + strings.Repeat("x", service.MaxSpecBytes) + `"}`
	cases := []struct {
		name string
		body string
		code int
	}{
		{"malformed JSON", `{"kind":`, http.StatusBadRequest},
		{"unknown field", `{"kind":"attack","surprise":1}`, http.StatusBadRequest},
		{"unknown kind", `{"kind":"bogus"}`, http.StatusBadRequest},
		{"findlut without expr", `{"kind":"findlut"}`, http.StatusBadRequest},
		{"corpus without spec", `{"kind":"corpus"}`, http.StatusBadRequest},
		{"corpus without designs", `{"kind":"corpus","corpus":{"designs":0}}`, http.StatusBadRequest},
		{"corpus negative index", `{"kind":"corpus","corpus":{"designs":4,"indices":[-1]}}`, http.StatusBadRequest},
		{"corpus index out of range", `{"kind":"corpus","corpus":{"designs":4,"indices":[9]}}`, http.StatusBadRequest},
		{"corpus retired no_dedup", `{"kind":"corpus","corpus":{"designs":4,"no_dedup":true}}`, http.StatusBadRequest},
		{"invalid lanes", `{"kind":"attack","lanes":-5}`, http.StatusBadRequest},
		{"lanes above one word", `{"kind":"attack","lanes":65}`, http.StatusBadRequest},
		{"campaign without runs", `{"kind":"campaign","campaign":{"runs":0}}`, http.StatusBadRequest},
		{"campaign runs over cap", `{"kind":"campaign","campaign":{"runs":1073741824}}`, http.StatusBadRequest},
		{"campaign negative parallel", `{"kind":"campaign","campaign":{"runs":1,"parallel":-1}}`, http.StatusBadRequest},
		{"campaign parallel over cap", `{"kind":"campaign","campaign":{"runs":1,"parallel":1073741824}}`, http.StatusBadRequest},
		{"corpus designs over cap", `{"kind":"corpus","corpus":{"designs":1000000000}}`, http.StatusBadRequest},
		{"corpus workers over cap", `{"kind":"corpus","corpus":{"designs":4,"workers":257}}`, http.StatusBadRequest},
		{"findlut parallel over cap", `{"kind":"findlut","expr":"a1^a2","parallel":257}`, http.StatusBadRequest},
		{"negative pad_frames", `{"kind":"attack","victim":{"pad_frames":-1000}}`, http.StatusBadRequest},
		{"pad_frames over cap", `{"kind":"attack","victim":{"pad_frames":131073}}`, http.StatusBadRequest},
		{"body over MaxSpecBytes", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sCode, sBody := post(t, serve.URL, tc.body)
			fCode, fBody := post(t, mirror.URL, tc.body)
			if sCode != tc.code {
				t.Fatalf("serve answered %d, want %d; body: %s", sCode, tc.code, sBody)
			}
			if fCode != sCode {
				t.Errorf("status diverges: serve %d, fleet %d", sCode, fCode)
			}
			if fBody != sBody {
				t.Errorf("error envelope diverges:\nserve: %s\nfleet: %s", sBody, fBody)
			}
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal([]byte(sBody), &env); err != nil ||
				!strings.HasPrefix(env.Error, service.ErrSpec.Error()) {
				t.Errorf("serve body is not the ErrSpec {\"error\": ...} envelope: %s", sBody)
			}
		})
	}
}

// TestJoinBodyCap pins the worker-join body cap: a join body over
// service.MaxSpecBytes answers 413 with the {"error": ...} envelope and
// leaves the membership untouched.
func TestJoinBodyCap(t *testing.T) {
	c := New(Config{HealthInterval: time.Hour})
	defer c.Shutdown(context.Background())
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	body := `{"name":"w1","url":"` + strings.Repeat("x", service.MaxSpecBytes) + `"}`
	resp, err := http.Post(srv.URL+"/workers", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || env.Error == "" {
		t.Fatalf("oversized join body is not the {\"error\": ...} envelope (%v)", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized join answered %d, want 413", resp.StatusCode)
	}
	if n := len(c.Workers()); n != 0 {
		t.Fatalf("oversized join changed membership: %d workers", n)
	}
}
