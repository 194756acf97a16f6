package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfHeaderClosed: a client that sends half a request header has its
// connection closed within the header timeout, instead of holding it (and
// a server goroutine) for as long as it likes. The test shortens the
// timeout on the server httpServer builds.
func TestHalfHeaderClosed(t *testing.T) {
	hs := httpServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.IdleTimeout != idleTimeout {
		t.Fatalf("httpServer timeouts: header %v, idle %v; want %v and %v",
			hs.ReadHeaderTimeout, hs.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	const timeout = 200 * time.Millisecond
	hs.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET /api/health HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	// Reading returns once the server closes the connection; the client's
	// own deadline, far past the header timeout, fails the test instead.
	if err := conn.SetReadDeadline(start.Add(10 * timeout)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %v after half a header (header timeout %v)", time.Since(start), timeout)
	}
	if took := time.Since(start); took < timeout {
		t.Errorf("connection closed after %v, before the %v header timeout", took, timeout)
	}
}
