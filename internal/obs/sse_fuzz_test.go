package obs

import (
	"bufio"
	"context"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzSSELastEventID feeds arbitrary Last-Event-ID headers and After
// resume points to ServeSSE over a closed bus whose ring has already
// evicted its oldest events. Whatever the id, ServeSSE must return
// without panicking and replay exactly the retained events with Seq
// above the resume point: the parsed id when it parses as a uint64,
// opt.After otherwise. SSEFromNow resumes after the last event, which
// no retained Seq exceeds either way.
func FuzzSSELastEventID(f *testing.F) {
	for _, lid := range []string{
		"", "0", "4", "5", "9", "12", "13", "abc", "-1", "+7", " 7", "0x10", "1e3",
		"18446744073709551615", "18446744073709551616", "99999999999999999999999",
	} {
		for _, after := range []uint64{0, 8, SSEFromNow} {
			f.Add(lid, after)
		}
	}
	const capacity, published = 8, 12 // the ring keeps seqs 5..12
	f.Fuzz(func(t *testing.T, lid string, after uint64) {
		b := NewEventBus(capacity)
		for i := 0; i < published; i++ {
			b.Publish(BusEvent{Type: EventJob, Name: "step"})
		}
		b.Close()

		resume := after
		if v, err := strconv.ParseUint(lid, 10, 64); lid != "" && err == nil {
			resume = v
		}
		var want []uint64
		for seq := uint64(published - capacity + 1); seq <= published; seq++ {
			if seq > resume {
				want = append(want, seq)
			}
		}

		rec := httptest.NewRecorder()
		done := make(chan error, 1)
		go func() {
			done <- ServeSSE(rec, sseRequest(context.Background(), lid), b, SSEOptions{After: after})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("ServeSSE(Last-Event-ID %q, After %d) = %v", lid, after, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("ServeSSE(Last-Event-ID %q, After %d) did not return on a closed bus", lid, after)
		}

		var got []uint64
		sc := bufio.NewScanner(strings.NewReader(rec.Body.String()))
		for sc.Scan() {
			if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
				seq, err := strconv.ParseUint(id, 10, 64)
				if err != nil {
					t.Fatalf("bad id line %q", sc.Text())
				}
				got = append(got, seq)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Last-Event-ID %q, After %d: replayed %v, want %v", lid, after, got, want)
		}
	})
}
