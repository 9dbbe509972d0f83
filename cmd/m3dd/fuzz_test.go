package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"testing"
)

// FuzzSweepSpec drives POST /sweeps' decode path (decodeSpec) with
// arbitrary bodies. It must never panic; every spec it accepts must yield
// a journal identity, and must re-marshal to a body that decodes to the
// same spec and the same identity — the round trip the job manifest makes
// when a restarted daemon replays an accepted spec.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"fig6","benchmarks":["Mcf"]}`,
		`{"experiment":"lpstudy","benchmarks":["Mcf"]}`,
		`{"experiment":"fig9","benchmarks":["Fft"],"instrs":80000,"warmup":5000,"phases":2,"seed":0,"workers":1}`,
		`{"experiment":"fig6","sample":true,"keep_going":true,"measure":1000000,"workers":1}`,
		`{"experiment":"table3"}`,
		`{"experiment":"table6","benchmarks":["Mcf"]}`,
		`{"experiment":"fig6","bogus":1}`,
		`{"experiment":"fig6","benchmarks":[]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := &server{}
	decode := func(body []byte) (sweepRequest, error) {
		return decodeSpec(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(body)
		if err != nil {
			return
		}
		id := s.identityFor(req)
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := decode(raw)
		if err != nil {
			t.Fatalf("re-marshaled spec %s is refused: %v", raw, err)
		}
		// Compared in wire form: an empty benchmark list and an absent one
		// are the same spec.
		if raw2, _ := json.Marshal(again); !bytes.Equal(raw2, raw) {
			t.Fatalf("spec changed across the round trip: %s -> %s", raw, raw2)
		}
		if id2 := s.identityFor(again); !reflect.DeepEqual(id2, id) {
			t.Fatalf("identity changed across the round trip: %+v -> %+v", id, id2)
		}
	})
}
