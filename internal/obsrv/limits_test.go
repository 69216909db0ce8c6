package obsrv

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

func serveLimits(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return srv
}

// TestStalledHeaderDisconnected opens a connection, sends half a request
// header, and stalls: the server must hang up once readHeaderTimeout
// passes, without answering.
func TestStalledHeaderDisconnected(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv := serveLimits(t)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	// The client-side deadline only keeps a broken server from hanging
	// the test; the server must close the connection well before it.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n, err := conn.Read(make([]byte, 512))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept a stalled half-header connection open for %v", time.Since(start))
	}
	if n != 0 || err == nil {
		t.Fatalf("read %d bytes (err %v) from a stalled connection, want a hang-up", n, err)
	}
}

// TestOversizedHeaderRejected sends a header block past maxHeaderBytes
// (and past net/http's read slack): the server must answer 431.
func TestOversizedHeaderRejected(t *testing.T) {
	srv := serveLimits(t)
	req, err := http.NewRequest(http.MethodGet, srv.URL()+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Padding", strings.Repeat("a", 4*maxHeaderBytes))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("status %d for a %d-byte header, want 431", resp.StatusCode, 4*maxHeaderBytes)
	}

	// A normal request on a fresh connection is still served.
	resp, err = http.Get(srv.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d after the rejection, want 200", resp.StatusCode)
	}
}
