package service

import (
	"bytes"
	"net/http"
	"testing"
)

// TestSubmitBodiesBounded: job and sweep submissions larger than the
// request-body limit are refused with 413 instead of being read whole.
func TestSubmitBodiesBounded(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	huge := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), 5<<20)...)
	huge = append(huge, `"}`...)
	for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 5 MiB body: status %d, want 413", path, resp.StatusCode)
		}
	}
}
