package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"testing"
	"time"
)

// TestSlowClientDisconnected: a client that sends half a request line and
// then stalls is disconnected once readHeaderTimeout expires, instead of
// holding the connection open forever.
func TestSlowClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(ln.Addr().String(), http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Write([]byte("GET /healthz HT")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %s after a stalled request line", time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %s, before the header timeout", waited)
	}
}

// TestParseWorkers: -workers is a pool size or a cluster address list; a
// value that is neither is rejected instead of starting a 1-worker pool.
func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		in    string
		n     int
		addrs []string
	}{
		{"4", 4, nil},
		{" 2 ", 2, nil},
		{"127.0.0.1:8871", 1, []string{"127.0.0.1:8871"}},
		{"a:1, b:2,", 1, []string{"a:1", "b:2"}},
	} {
		n, addrs, err := parseWorkers(tc.in)
		if err != nil || n != tc.n || !slices.Equal(addrs, tc.addrs) {
			t.Errorf("parseWorkers(%q) = %d, %q, %v; want %d, %q", tc.in, n, addrs, err, tc.n, tc.addrs)
		}
	}
	for _, in := range []string{"", ",", " , ", "  "} {
		if _, _, err := parseWorkers(in); err == nil {
			t.Errorf("parseWorkers(%q) accepted a value with neither a number nor an address", in)
		}
	}
}
