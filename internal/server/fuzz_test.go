package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"reopt/internal/server"
	"reopt/reoptclient"
)

// fuzzEndpoints are the request decoders FuzzRequestBodies exercises,
// picked by the first fuzz argument modulo their count.
var fuzzEndpoints = []string{"/v1/reoptimize", "/v1/validate", "/v1/workload"}

// errorKinds is the wire taxonomy every non-200 body's kind belongs to.
var errorKinds = []string{
	reoptclient.KindOverloaded, reoptclient.KindDraining, reoptclient.KindMemoryBudget,
	reoptclient.KindValidationPanic, reoptclient.KindPanic, reoptclient.KindBudgetExhausted,
	reoptclient.KindBadRequest, reoptclient.KindUnknownTenant, reoptclient.KindInternal,
}

// FuzzRequestBodies serves arbitrary bodies to the three POST endpoints
// of a daemon over the test OTT catalog with the default quota. Whatever
// the body, the handler must answer within a few seconds, never with a
// 500 or a contained panic, and every non-200 answer must be a
// structured ErrorBody whose kind is in the taxonomy.
func FuzzRequestBodies(f *testing.F) {
	cat := ottCatalog(f)
	q := server.DefaultQuota()
	srv, err := server.New(cat, server.Config{Default: &q})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	// Seeds: the bodies the server tests send.
	sql, _ := ottQueries(f, cat, 3, 3, 7)
	add := func(ep uint8, v any) {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ep, body)
	}
	add(0, &reoptclient.ReoptimizeRequest{SQL: sql[0]})
	add(0, &reoptclient.ReoptimizeRequest{SQL: sql[0], Seeds: 2})
	add(0, &reoptclient.ReoptimizeRequest{SQL: sql[1], Seeds: 16})
	add(0, &reoptclient.ReoptimizeRequest{SQL: sql[0], Seeds: 1 << 30})
	add(0, &reoptclient.ReoptimizeRequest{SQL: sql[2], Timeout: reoptclient.Duration(time.Nanosecond)})
	add(0, &reoptclient.ReoptimizeRequest{SQL: sql[1], MaxRounds: 1})
	add(1, &reoptclient.ValidateRequest{SQL: sql})
	add(2, &reoptclient.WorkloadRequest{SQL: sql, Parallelism: 2})
	for ep := range fuzzEndpoints {
		f.Add(uint8(ep), []byte(`{nope`))
		f.Add(uint8(ep), []byte(`{"sql":"SELECT FROM nothing"}`))
		f.Add(uint8(ep), []byte(`{"sql":["SELECT COUNT(*) FROM r1"]}`))
		f.Add(uint8(ep), []byte(`{"sql":"SELECT COUNT(*) FROM r1"}`))
		f.Add(uint8(ep), []byte(`{"sql":"SELECT COUNT(*) FROM r1, r2, r3, r4, r5"}`))
		f.Add(uint8(ep), []byte(`{"sql":["SELECT COUNT(*) FROM r1, r2, r3, r4, r5"]}`))
		f.Add(uint8(ep), []byte(``))
	}

	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s %q: no answer within 5s", path, body)
		}
		if rec.Code == http.StatusOK {
			return
		}
		var eb reoptclient.ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("%s %q: %d with a body that is not an ErrorBody: %v\n%s", path, body, rec.Code, err, rec.Body.Bytes())
		}
		if !slices.Contains(errorKinds, eb.Kind) {
			t.Fatalf("%s %q: %d with kind %q outside the taxonomy", path, body, rec.Code, eb.Kind)
		}
		if rec.Code == http.StatusInternalServerError || eb.Kind == reoptclient.KindPanic {
			t.Fatalf("%s %q: %d %s: %s", path, body, rec.Code, eb.Kind, eb.Message)
		}
	})
}
