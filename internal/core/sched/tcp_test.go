package sched

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xartrek/internal/core/threshold"
)

func startTCP(t *testing.T, srv *Server) *TCPServer {
	t.Helper()
	ts, err := ListenAndServe("127.0.0.1:0", srv)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

func dialTCP(t *testing.T, addr string) *TCPClient {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTCPDecideRoundTrip(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	srv := NewServer(testTable(t), func() int { return 40 }, dev, nil)
	ts := startTCP(t, srv)
	c := dialTCP(t, ts.Addr())

	d, err := c.Decide("app", "KNL")
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	if d.Target != threshold.TargetFPGA {
		t.Fatalf("target = %v, want fpga", d.Target)
	}
	if srv.Stats().Requests != 1 {
		t.Fatal("server did not record the request")
	}
}

func TestTCPReportRoundTrip(t *testing.T) {
	srv := NewServer(testTable(t), func() int { return 10 }, nil, nil)
	ts := startTCP(t, srv)
	c := dialTCP(t, ts.Addr())

	rec, err := c.Report("app", threshold.TargetX86, 400*time.Millisecond)
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	if rec.FPGAThr != 10 {
		t.Fatalf("echoed FPGAThr = %d, want 10", rec.FPGAThr)
	}
	got, err := srv.Table().Get("app")
	if err != nil {
		t.Fatal(err)
	}
	if got.FPGAThr != 10 {
		t.Fatalf("server table FPGAThr = %d, want 10", got.FPGAThr)
	}
}

func TestTCPErrorPropagation(t *testing.T) {
	srv := NewServer(threshold.NewTable(), func() int { return 1 }, nil, nil)
	ts := startTCP(t, srv)
	c := dialTCP(t, ts.Addr())

	_, err := c.Decide("ghost", "K")
	if err == nil || !strings.Contains(err.Error(), "no threshold record") {
		t.Fatalf("err = %v, want unknown-app error over the wire", err)
	}
}

func TestTCPClientViaRequesterInterface(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	srv := NewServer(testTable(t), func() int { return 40 }, dev, nil)
	ts := startTCP(t, srv)
	tc := dialTCP(t, ts.Addr())

	client := NewClient("app", "KNL", tc)
	d, err := client.Request()
	if err != nil {
		t.Fatal(err)
	}
	if d.Target != threshold.TargetFPGA {
		t.Fatalf("target = %v", d.Target)
	}
	if _, err := client.Report(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	srv := NewServer(testTable(t), func() int { return 40 }, dev, nil)
	ts := startTCP(t, srv)

	const clients = 8
	const perClient = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(ts.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				if _, err := c.Decide("app", "KNL"); err != nil {
					errs <- err
					return
				}
				if _, err := c.Report("app", threshold.TargetFPGA, time.Millisecond); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client error: %v", err)
	}
	st := srv.Stats()
	if st.Requests != clients*perClient || st.Reports != clients*perClient {
		t.Fatalf("stats = %+v, want %d requests and reports", st, clients*perClient)
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv := NewServer(testTable(t), func() int { return 1 }, nil, nil)
	ts, err := ListenAndServe("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := ts.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTCPClientTimeout(t *testing.T) {
	// A listener that accepts and never answers: the round trip must
	// fail on the I/O deadline instead of hanging.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never respond
		}
	}()

	c, err := DialConfigured(ln.Addr().String(), DialConfig{
		Timeout:    100 * time.Millisecond,
		MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.Decide("app", "KNL")
	if err == nil {
		t.Fatal("decide against a mute server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed out after %v, deadline not applied", elapsed)
	}
}

func TestTCPClientRetryReconnects(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	srv := NewServer(testTable(t), func() int { return 40 }, dev, nil)
	ts := startTCP(t, srv)

	c, err := DialConfigured(ts.Addr(), DialConfig{
		Timeout:    time.Second,
		MaxRetries: 2,
		Backoff:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Decide("app", "KNL"); err != nil {
		t.Fatalf("first decide: %v", err)
	}

	// Sever the connection from the server side; the client's next
	// round trip must redial transparently.
	ts.mu.Lock()
	for conn := range ts.conns {
		conn.Close()
	}
	ts.mu.Unlock()

	d, err := c.Decide("app", "KNL")
	if err != nil {
		t.Fatalf("decide after server-side drop: %v", err)
	}
	if d.Target != threshold.TargetFPGA {
		t.Fatalf("target = %v, want fpga", d.Target)
	}
}

func TestTCPClientRetriesExhausted(t *testing.T) {
	// Point at a dead address: every redial fails and the error names
	// the attempt count.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer(testTable(t), func() int { return 1 }, nil, nil)
	ts := &TCPServer{srv: srv, ln: ln, conns: make(map[net.Conn]struct{})}
	ts.wg.Add(1)
	go ts.acceptLoop()

	c, err := DialConfigured(addr, DialConfig{
		Timeout:    200 * time.Millisecond,
		MaxRetries: 2,
		Backoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ts.Close()

	_, err = c.Decide("app", "K")
	if err == nil {
		t.Fatal("decide against a closed server succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err = %v, want attempt count", err)
	}
}

func TestTCPServerCloseDrainsInFlight(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	// A slow load sampler keeps the decide in flight while Close runs.
	slow := func() int { time.Sleep(200 * time.Millisecond); return 40 }
	srv := NewServer(testTable(t), slow, dev, nil)
	ts, err := ListenAndServe("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	c := dialTCP(t, ts.Addr())

	type result struct {
		d   Decision
		err error
	}
	got := make(chan result, 1)
	go func() {
		d, err := c.Decide("app", "KNL")
		got <- result{d, err}
	}()

	time.Sleep(50 * time.Millisecond) // let the frame reach the server
	if err := ts.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight decide dropped by Close: %v", r.err)
	}
	if r.d.Target != threshold.TargetFPGA {
		t.Fatalf("target = %v, want fpga", r.d.Target)
	}
	if n := ts.Conns(); n != 0 {
		t.Fatalf("%d connections survived Close", n)
	}
}

func TestTCPServerCloseForceClosesStuckConns(t *testing.T) {
	slow := func() int { time.Sleep(2 * time.Second); return 1 }
	srv := NewServer(testTable(t), slow, nil, nil)
	ts, err := ListenAndServe("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	ts.DrainTimeout = 50 * time.Millisecond
	c := dialTCP(t, ts.Addr())

	go c.Decide("app", "K") // will be cut off mid-handle
	time.Sleep(30 * time.Millisecond)

	start := time.Now()
	if err := ts.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("close took %v, drain timeout not enforced", elapsed)
	}
}

func TestTCPUnknownMessageType(t *testing.T) {
	srv := NewServer(testTable(t), func() int { return 1 }, nil, nil)
	ts := startTCP(t, srv)
	c := dialTCP(t, ts.Addr())

	// Abuse roundTrip with an invalid frame type.
	_, err := c.roundTrip(wireRequest{Type: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown message type") {
		t.Fatalf("err = %v, want unknown-type error", err)
	}
}

// waitClosed reads from a raw connection until the server closes it,
// failing if that takes longer than limit.
func waitClosed(t *testing.T, conn net.Conn, limit time.Duration) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(limit))
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("server kept the connection open past %v", limit)
			}
			return
		}
	}
}

func TestTCPServerDropsOversizedFrame(t *testing.T) {
	dev := &fakeDevice{kernels: map[string]bool{"KNL": true}}
	srv := NewServer(testTable(t), func() int { return 40 }, dev, nil)
	ts := startTCP(t, srv)
	good := dialTCP(t, ts.Addr())

	bad, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	// An unterminated string keeps the decoder reading: without a cap
	// its buffer would grow for as long as the peer sends.
	go func() {
		bad.Write([]byte(`{"type":"request","app":"`))
		chunk := []byte(strings.Repeat("a", 4096))
		for sent := 0; sent <= 2*MaxFrameBytes; sent += len(chunk) {
			if _, err := bad.Write(chunk); err != nil {
				return
			}
		}
	}()
	waitClosed(t, bad, 5*time.Second)

	// Only the offending connection was dropped.
	d, err := good.Decide("app", "KNL")
	if err != nil || d.Target != threshold.TargetFPGA {
		t.Fatalf("well-behaved client after the oversized frame: %+v, %v", d, err)
	}
}

// shortFrameTimeout shortens a server's frame timeout for a test.
func shortFrameTimeout(ts *TCPServer) {
	ts.mu.Lock()
	ts.frameTimeout = 50 * time.Millisecond
	ts.mu.Unlock()
}

func TestTCPServerDropsStalledFrame(t *testing.T) {
	srv := NewServer(testTable(t), func() int { return 1 }, nil, nil)
	ts := startTCP(t, srv)
	shortFrameTimeout(ts)

	stalled, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	// Half a frame, then nothing: the frame timeout cuts the peer off.
	if _, err := stalled.Write([]byte(`{"type":"request",`)); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, stalled, 5*time.Second)

	// A whole frame and half of the next in one write: the first is
	// answered, and the timeout runs for the second from the start, as
	// it already sits in the server's buffer.
	pipelined, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pipelined.Close()
	if _, err := pipelined.Write([]byte("{\"type\":\"request\",\"app\":\"app\"}\n{\"type\":")); err != nil {
		t.Fatal(err)
	}
	pipelined.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp wireResponse
	if err := json.NewDecoder(pipelined).Decode(&resp); err != nil || !resp.OK {
		t.Fatalf("first pipelined frame: %+v, %v", resp, err)
	}
	waitClosed(t, pipelined, 5*time.Second)

	deadline := time.Now().Add(5 * time.Second)
	for ts.Conns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still registered after the frame timeout", ts.Conns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTCPServerKeepsQuietConnection(t *testing.T) {
	// A process that runs its function for longer than the frame
	// timeout between Decide and Report keeps its connection, so the
	// process-count load (Conns) still counts it.
	srv := NewServer(testTable(t), func() int { return 1 }, nil, nil)
	ts := startTCP(t, srv)
	shortFrameTimeout(ts)
	c, err := DialConfigured(ts.Addr(), DialConfig{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Decide("app", "KNL"); err != nil {
		t.Fatalf("decide: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if n := ts.Conns(); n != 1 {
		t.Fatalf("Conns = %d after a quiet spell, want 1", n)
	}
	// No retries: a dropped connection would fail this report.
	if _, err := c.Report("app", threshold.TargetX86, 3*time.Second); err != nil {
		t.Fatalf("report over the quiet connection: %v", err)
	}
}
