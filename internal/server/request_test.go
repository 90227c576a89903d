package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeBody runs a raw body through the real decode path.
func decodeBody(t *testing.T, body string) *Request {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	q, err := decodeRequest(r)
	if err != nil {
		t.Fatalf("decodeRequest(%q): %v", body, err)
	}
	return q
}

// TestShardFieldRejected pins that the removed "shards" config field is
// an unknown field: the body is refused with 400 at decode time, so no
// request can select a nondeterministic engine whose result would then be
// memoized, stored and replicated under a canonical key.
func TestShardFieldRejected(t *testing.T) {
	body := `{"workload":"matmul","cores":4,"scale":0.1,"config":{"shards":2}}`
	r := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body))
	_, err := decodeRequest(r)
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusBadRequest {
		t.Fatalf("decodeRequest(%s) = %v, want a 400 apiError", body, err)
	}
	if !strings.Contains(ae.msg, "shards") {
		t.Errorf("error %q does not name the unknown field", ae.msg)
	}

	rec := httptest.NewRecorder()
	New(Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("POST /v1/run: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// TestCanonicalKeyNormalizesScalarDefaults pins the coalescing contract:
// an omitted scalar and its spelled-out default produce the same key;
// differing list spellings do not.
func TestCanonicalKeyNormalizesScalarDefaults(t *testing.T) {
	base := decodeBody(t, `{"workload":"matmul"}`)
	for _, body := range []string{
		`{"workload":"matmul","cores":64}`,
		`{"workload":"matmul","scale":1}`,
		`{"scale":1.0,"cores":64,"workload":"matmul","seed":0}`,
		"  {\n\"workload\": \"matmul\"\n}  ",
	} {
		if got := decodeBody(t, body).canonicalKey(); got != base.canonicalKey() {
			t.Errorf("key(%s) = %q, want the omitted-defaults key %q", body, got, base.canonicalKey())
		}
	}
	if got := decodeBody(t, `{"workload":"matmul","cores":32}`).canonicalKey(); got == base.canonicalKey() {
		t.Error("a non-default cores value must not coalesce with the default")
	}
}

// TestCapsApplyToOmittedDefaults pins the admission-cap contract: caps
// bound the values that actually run, so an omitted cores/scale (the
// 64-core, scale-1.0 defaults) is rejected by a server capped below
// them.
func TestCapsApplyToOmittedDefaults(t *testing.T) {
	s := New(Config{MaxCores: 16, MaxScale: 0.5})
	for _, tc := range []struct{ name, body string }{
		{"omitted cores over cap", `{"workload":"matmul","scale":0.1}`},
		{"omitted scale over cap", `{"workload":"matmul","cores":16}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(tc.body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status %d, want 400: %s", rec.Code, rec.Body)
			}
		})
	}
	// Within caps, the same omitted fields are fine.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"workload":"matmul","cores":4,"scale":0.05}`)))
	if rec.Code != http.StatusOK {
		t.Errorf("capped-but-valid run: status %d: %s", rec.Code, rec.Body)
	}

	// The scaling endpoint's default series must respect the cap too.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiments/scaling",
		strings.NewReader(`{"scale":0.05,"benchmarks":["matmul"]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("default scaling series on capped server: status %d, want 400: %s", rec.Code, rec.Body)
	}
}
