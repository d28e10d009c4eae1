package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestSlowHeaderConnectionClosed: a client that sends half a request
// header and then stalls is disconnected once the header timeout passes,
// while a complete request on the same server is still answered.
func TestSlowHeaderConnectionClosed(t *testing.T) {
	const timeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}), timeout, timeout)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "ok" {
		t.Fatalf("complete request answered %q, want ok", body)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: efesd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection with half a header still open after 10s")
	}
	if elapsed := time.Since(start); elapsed < timeout {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, timeout)
	}
	if n != 0 {
		t.Errorf("server wrote %d bytes to a request it never finished reading", n)
	}
}
