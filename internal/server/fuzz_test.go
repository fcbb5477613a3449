package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzCompileRequest posts arbitrary bodies to POST /compile. Whatever the
// body, the handler must not panic, must answer with one of the statuses
// the API documents, and must explain every 4xx in a JSON error body.
// Jobs that do start run under a short timeout, so a body that happens to
// be a valid request ends quickly.
func FuzzCompileRequest(f *testing.F) {
	for _, seed := range []string{
		`{"name":"s","source":"pkt.a = pkt.a + 1;","wait":true}`,
		`{"source":"pkt.a = pkt.a + 1;"}`,
		`{"source":"pkt.a = 1;","cegis_mode":"holes"}`,
		`{"source":"pkt.a = 1;","race_modes":true,"parallel":2}`,
		`{"source":"pkt.a = 1;","max_stage":3}`,
		`{"source":"pkt.a = 1;"} trailing`,
		`{"source":"pkt.a = 1;"}{"source":"pkt.a = 2;"}`,
		`{"source":"pkt.a = 1;","width":1000}`,
		`{"source":"pkt.a = 1;","verify_width":64,"synth_width":-1}`,
		`{"source":"pkt.a = 1;","target":"bpf","max_stages":2,"wait":true}`,
		`{"source":"if ((((","wait":true}`,
		`{"width":"two"}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{Workers: 1, QueueDepth: 2, JobTimeout: 200 * time.Millisecond})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	h := s.Handler()
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusAccepted:              true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusTooManyRequests:       true,
		http.StatusServiceUnavailable:    true,
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(string(body))))
		if !allowed[rec.Code] {
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
		if rec.Code >= 400 && rec.Code < 500 {
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a JSON error body (%v): %q", rec.Code, err, rec.Body.String())
			}
		}
	})
}
