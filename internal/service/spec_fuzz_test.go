package service

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeSpec feeds untrusted POST /jobs bodies through DecodeSpec
// and Validate, the gate every engine submit, fleet submit and WAL
// replay passes. The spec is never executed. Every rejection must wrap
// ErrSpec, and every accepted spec must hold each size field within its
// cap, so no accepted body can ask for an unbounded allocation.
func FuzzDecodeSpec(f *testing.F) {
	// The bodies of TestErrorShapeParity (less the 1 MiB one, whose 413
	// path that test pins), plus accepted specs to mutate from.
	for _, body := range []string{
		`{"kind":`,
		`{"kind":"attack","surprise":1}`,
		`{"kind":"bogus"}`,
		`{"kind":"findlut"}`,
		`{"kind":"corpus"}`,
		`{"kind":"corpus","corpus":{"designs":0}}`,
		`{"kind":"corpus","corpus":{"designs":4,"indices":[-1]}}`,
		`{"kind":"corpus","corpus":{"designs":4,"indices":[9]}}`,
		`{"kind":"corpus","corpus":{"designs":4,"no_dedup":true}}`,
		`{"kind":"attack","lanes":-5}`,
		`{"kind":"attack","lanes":65}`,
		`{"kind":"campaign","campaign":{"runs":0}}`,
		`{"kind":"campaign","campaign":{"runs":1073741824}}`,
		`{"kind":"campaign","campaign":{"runs":1,"parallel":-1}}`,
		`{"kind":"campaign","campaign":{"runs":1,"parallel":1073741824}}`,
		`{"kind":"corpus","corpus":{"designs":1000000000}}`,
		`{"kind":"corpus","corpus":{"designs":4,"workers":257}}`,
		`{"kind":"findlut","expr":"a1^a2","parallel":257}`,
		`{"kind":"attack","victim":{"pad_frames":-1000}}`,
		`{"kind":"attack","victim":{"pad_frames":131073}}`,
		`{"kind":"attack","victim":{"key":[735462815,2193994496,2502707472,1216479048]},"iv":[3926017812,2908507524,3743390501,470545503]}`,
		`{"kind":"findlut","expr":"(a1^a2^a3)a4a5!a6","parallel":2,"timeout_ms":5000}`,
		`{"kind":"campaign","campaign":{"runs":25,"parallel":2,"seed":7,"chaos":true}}`,
		`{"kind":"corpus","corpus":{"designs":6,"seed":5,"indices":[0,2,4],"workers":2}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
		spec, err := DecodeSpec(httptest.NewRecorder(), req)
		if err == nil {
			err = spec.Validate()
		}
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("rejection does not wrap ErrSpec: %v", err)
			}
			return
		}
		within := func(field string, v, max int) {
			if v < 0 || v > max {
				t.Fatalf("accepted spec has %s = %d, outside [0, %d]", field, v, max)
			}
		}
		within("parallel", spec.Parallel, MaxSpecWorkers)
		within("victim.pad_frames", spec.Victim.PadFrames, MaxSpecPadFrames)
		if c := spec.Campaign; c != nil {
			within("campaign.runs", c.Runs, MaxSpecRuns)
			within("campaign.parallel", c.Parallel, MaxSpecWorkers)
		}
		if c := spec.Corpus; c != nil {
			within("corpus.designs", c.Designs, MaxSpecDesigns)
			within("len(corpus.indices)", len(c.Indices), MaxSpecDesigns)
			within("corpus.parallel", c.Parallel, MaxSpecWorkers)
			within("corpus.workers", c.Workers, MaxSpecWorkers)
		}
	})
}
