package service

import (
	"bytes"
	"io"
	"net/http"
	"strings"
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

// TestSubmitTrailingDataRejected: a job or sweep body with anything after
// its JSON object - more text, or a stray closing brace or bracket - is
// refused with 400, and no job is queued.
func TestSubmitTrailingDataRejected(t *testing.T) {
	svc, ts := newTestServer(t, Config{Workers: 1})
	for path, object := range map[string]string{
		"/v1/jobs":   `{"model":"mobilenetv2","params":{"profile":"fast"}}`,
		"/v1/sweeps": `{"models":["mobilenetv2"],"search":{"profile":"fast"}}`,
	} {
		for _, trailing := range []string{" trailing", "}", "]"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(object+trailing))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "trailing data after JSON object") {
				t.Errorf("POST %s with trailing %q: %d %s, want 400 trailing data", path, trailing, resp.StatusCode, msg)
			}
		}
	}
	if n := len(svc.store.List()); n != 0 {
		t.Fatalf("%d jobs queued, want none", n)
	}
}
