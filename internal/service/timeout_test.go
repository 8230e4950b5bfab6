package service

import "testing"

// TestHTTPServerTimeouts checks that the server Run serves with carries the
// connection timeouts, so a client that trickles its headers or parks an
// idle keep-alive connection cannot hold it open indefinitely.
func TestHTTPServerTimeouts(t *testing.T) {
	if ReadHeaderTimeout <= 0 || IdleTimeout <= 0 {
		t.Fatalf("timeouts must be positive: read-header %v, idle %v", ReadHeaderTimeout, IdleTimeout)
	}
	srv := New(Config{Workers: 1}).httpServer()
	if srv.ReadHeaderTimeout != ReadHeaderTimeout {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	if srv.IdleTimeout != IdleTimeout {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, IdleTimeout)
	}
	if srv.Handler == nil {
		t.Error("server has no handler")
	}
}
