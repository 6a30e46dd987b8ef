package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snowbma/internal/service"
)

// TestConcurrentSubmitIDsAreUnique submits from many goroutines to a
// worker that refuses every second job with 429. A refused dispatch
// must not hand its id back: a concurrent Submit may already hold a
// later one, and the reused id would then name two jobs, one
// overwriting the other in the job table. Run under -race.
func TestConcurrentSubmitIDsAreUnique(t *testing.T) {
	var posts atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method != http.MethodPost {
			json.NewEncoder(w).Encode(map[string]any{"jobs": []service.Status{}}) //nolint:errcheck
			return
		}
		n := posts.Add(1)
		if n%2 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "queue full"}) //nolint:errcheck
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(service.Status{ID: "w-" + strconv.FormatInt(n, 10), State: service.StateQueued}) //nolint:errcheck
	}))
	defer worker.Close()
	c := New(Config{Workers: map[string]string{"w1": worker.URL}, HealthInterval: time.Hour})
	defer c.Shutdown(context.Background()) //nolint:errcheck

	const goroutines, submits = 8, 50
	var mu sync.Mutex
	var ids []string
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < submits; i++ {
				st, err := c.Submit(attackSpec(int64(g*submits + i + 1)))
				if err != nil {
					continue
				}
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %s handed out twice", id)
		}
		seen[id] = true
	}
	if len(ids) == 0 || len(ids) == goroutines*submits {
		t.Fatalf("%d of %d submissions accepted; the worker refuses every second one", len(ids), goroutines*submits)
	}
	if got := len(c.List()); got != len(ids) {
		t.Fatalf("List holds %d jobs, %d were accepted", got, len(ids))
	}
	for _, id := range ids {
		if st, err := c.Get(id); err != nil || st.ID != id {
			t.Fatalf("Get(%s) = %+v, %v", id, st, err)
		}
	}
}
