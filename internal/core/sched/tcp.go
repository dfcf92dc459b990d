package sched

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"xartrek/internal/core/threshold"
)

// Wire message types. The protocol is newline-delimited JSON: one
// request object per line, one response object per line. The paper's
// implementation uses raw sockets and signals; JSON-over-TCP keeps the
// same request/response shape while staying debuggable with netcat.
const (
	msgRequest = "request"
	msgReport  = "report"
)

// wireRequest is the client→server frame.
type wireRequest struct {
	Type   string `json:"type"`
	App    string `json:"app"`
	Kernel string `json:"kernel,omitempty"`
	Target int    `json:"target,omitempty"`
	ExecNS int64  `json:"execNanos,omitempty"`
}

// wireResponse is the server→client frame.
type wireResponse struct {
	OK       bool   `json:"ok"`
	Error    string `json:"error,omitempty"`
	Target   int    `json:"target,omitempty"`
	Reconfig bool   `json:"reconfig,omitempty"`
	// Threshold echo after a report, for observability.
	FPGAThr int `json:"fpgaThr,omitempty"`
	ARMThr  int `json:"armThr,omitempty"`
}

// Wire-robustness defaults. Clients bound every round trip with an I/O
// deadline and retry transport failures (never application errors) with
// exponential backoff over a fresh connection; the server drains live
// connections on Close before force-closing stragglers, and drops a
// connection whose frame, once begun, stays incomplete past
// DefaultFrameTimeout or outgrows MaxFrameBytes.
//
// A connection that is quiet between frames stays open: with one
// connection per application process, Conns is the standalone daemon's
// load metric, and a process may run its function for as long as it
// needs between Decide and Report. Accepted connections keep the
// standard library's default TCP keep-alive, which drops peers that
// vanish.
const (
	DefaultIOTimeout    = 5 * time.Second
	DefaultDialRetries  = 2
	DefaultDialBackoff  = 50 * time.Millisecond
	DefaultDrainTimeout = 5 * time.Second
	DefaultFrameTimeout = 30 * time.Second
)

// MaxFrameBytes caps the bytes the server reads while decoding one
// request frame (the frame plus the decoder's read-ahead). Real frames
// are a few hundred bytes; a peer that streams more without completing
// a frame is cut off instead of growing the decoder's buffer without
// limit.
const MaxFrameBytes = 64 << 10

// TCPServer exposes a Server over a TCP listener.
type TCPServer struct {
	srv *Server
	ln  net.Listener

	// DrainTimeout bounds how long Close waits for in-flight frames
	// before force-closing connections. Zero means DefaultDrainTimeout.
	DrainTimeout time.Duration

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	// frameTimeout is DefaultFrameTimeout; tests shorten it.
	frameTimeout time.Duration
}

// ListenAndServe starts serving the scheduler on addr (e.g.
// "127.0.0.1:0"). It returns once the listener is bound; connections
// are served on background goroutines until Close.
func ListenAndServe(addr string, srv *Server) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sched: listen %s: %w", addr, err)
	}
	t := &TCPServer{srv: srv, ln: ln, conns: make(map[net.Conn]struct{}), frameTimeout: DefaultFrameTimeout}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr reports the bound address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

// Conns reports the number of live client connections. With one
// scheduler-client connection per application process, this doubles as
// the paper's process-count load metric for standalone deployments.
func (t *TCPServer) Conns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}

// Close stops the listener and drains live connections: requests
// already in flight get their responses, idle readers are unblocked by
// an immediate read deadline, and any connection still busy past the
// drain timeout is force-closed and abandoned.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.ln.Close()
	// Nudge idle decoders off their blocking reads; connections mid-
	// handle still write their response before noticing the deadline.
	for c := range t.conns {
		c.SetReadDeadline(time.Now())
	}
	timeout := t.DrainTimeout
	if timeout <= 0 {
		timeout = DefaultDrainTimeout
	}
	t.mu.Unlock()

	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		// Abandon stragglers: their goroutines exit as soon as the
		// in-flight handler returns and hits the dead socket.
		t.mu.Lock()
		for c := range t.conns {
			c.Close()
		}
		t.mu.Unlock()
	}
	return err
}

// acceptLoop admits connections until the listener closes.
func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serveConn(conn)
	}
}

// serveConn handles one client connection. Each frame gets a fresh
// MaxFrameBytes budget and, from its first byte on, the frame timeout;
// running out of either ends this connection only.
func (t *TCPServer) serveConn(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		conn.Close()
	}()

	fr := &frameReader{t: t, conn: conn}
	dec := json.NewDecoder(fr)
	enc := json.NewEncoder(conn)
	begun := false
	for {
		fr.next(begun)
		var req wireRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := t.handle(req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		// The decoder may already hold the start of the next frame.
		rest, _ := io.ReadAll(dec.Buffered())
		begun = framed(rest)
	}
}

// frameReader is the connection as the request decoder reads it. It
// ends the stream (io.EOF, so the decode fails) once a frame has read
// MaxFrameBytes, and arms the frame deadline when the frame's first
// non-space byte arrives.
type frameReader struct {
	t     *TCPServer
	conn  net.Conn
	left  int  // bytes the current frame may still read
	armed bool // the frame deadline is set
}

// next starts a frame: a fresh byte budget, and no read deadline until
// the frame begins — unless it already has.
func (r *frameReader) next(begun bool) {
	r.left = MaxFrameBytes
	r.armed = begun
	r.t.armRead(r.conn, begun)
}

func (r *frameReader) Read(p []byte) (int, error) {
	if r.left <= 0 {
		return 0, io.EOF
	}
	if len(p) > r.left {
		p = p[:r.left]
	}
	n, err := r.conn.Read(p)
	r.left -= n
	if !r.armed && framed(p[:n]) {
		r.armed = true
		r.t.armRead(r.conn, true)
	}
	return n, err
}

// framed reports whether b holds any byte of a frame, that is anything
// but the whitespace between JSON values.
func framed(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return true
		}
	}
	return false
}

// armRead sets the connection's read deadline: the frame timeout while
// a frame is partly read, none between frames, and — once Close has
// begun draining — an immediate one, so a frame already buffered is
// still served but the connection never waits for another.
func (t *TCPServer) armRead(conn net.Conn, inFrame bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.closed:
		conn.SetReadDeadline(time.Now())
	case inFrame:
		conn.SetReadDeadline(time.Now().Add(t.frameTimeout))
	default:
		conn.SetReadDeadline(time.Time{})
	}
}

// handle dispatches one frame to the scheduler.
func (t *TCPServer) handle(req wireRequest) wireResponse {
	switch req.Type {
	case msgRequest:
		d, err := t.srv.Decide(req.App, req.Kernel)
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, Target: int(d.Target), Reconfig: d.ReconfigStarted}
	case msgReport:
		rec, err := t.srv.Report(req.App, threshold.Target(req.Target), time.Duration(req.ExecNS))
		if err != nil {
			return wireResponse{Error: err.Error()}
		}
		return wireResponse{OK: true, FPGAThr: rec.FPGAThr, ARMThr: rec.ARMThr}
	default:
		return wireResponse{Error: fmt.Sprintf("sched: unknown message type %q", req.Type)}
	}
}

// DialConfig tunes the client's robustness knobs. The zero value of
// any field selects the package default.
type DialConfig struct {
	// Timeout bounds every round trip (write + read) and every redial.
	// Negative disables deadlines entirely.
	Timeout time.Duration
	// MaxRetries is how many times a transport failure is retried over
	// a fresh connection. Negative disables retries.
	MaxRetries int
	// Backoff is the sleep before the first retry; it doubles on each
	// subsequent attempt.
	Backoff time.Duration
}

func (cfg DialConfig) withDefaults() DialConfig {
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultIOTimeout
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultDialRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultDialBackoff
	}
	return cfg
}

// TCPClient is the socket-backed Requester used by application
// processes on other machines (or other processes on the host).
type TCPClient struct {
	addr string
	cfg  DialConfig

	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a scheduler server with default robustness knobs.
func Dial(addr string) (*TCPClient, error) {
	return DialConfigured(addr, DialConfig{})
}

// DialConfigured connects to a scheduler server with explicit deadline
// and retry behavior.
func DialConfigured(addr string, cfg DialConfig) (*TCPClient, error) {
	c := &TCPClient{addr: addr, cfg: cfg.withDefaults()}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// redial replaces the connection; callers hold c.mu (or own c solely,
// as in DialConfigured).
func (c *TCPClient) redial() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	timeout := c.cfg.Timeout
	if timeout < 0 {
		timeout = 0 // net.DialTimeout: zero means no timeout
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return fmt.Errorf("sched: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.dec = json.NewDecoder(bufio.NewReader(conn))
	c.enc = json.NewEncoder(conn)
	return nil
}

// Close shuts the connection.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// roundTrip sends one frame and reads one response under the I/O
// deadline, retrying transport failures over a fresh connection with
// exponential backoff. Application-level errors (resp.Error) are never
// retried: the frame reached the scheduler and was answered. Note a
// retried report whose response was lost in transit may be counted
// twice by the server; the threshold table tolerates duplicate samples.
func (c *TCPClient) roundTrip(req wireRequest) (wireResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.cfg.Backoff << (attempt - 1))
			if err := c.redial(); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err := c.exchange(req)
		if err == nil {
			if resp.Error != "" {
				return wireResponse{}, errors.New(resp.Error)
			}
			return resp, nil
		}
		lastErr = err
	}
	if c.cfg.MaxRetries > 0 {
		return wireResponse{}, fmt.Errorf("sched: after %d attempts: %w", c.cfg.MaxRetries+1, lastErr)
	}
	return wireResponse{}, lastErr
}

// exchange performs one send/recv on the current connection.
func (c *TCPClient) exchange(req wireRequest) (wireResponse, error) {
	if c.conn == nil {
		return wireResponse{}, errors.New("sched: client closed")
	}
	if c.cfg.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(req); err != nil {
		return wireResponse{}, fmt.Errorf("sched: send: %w", err)
	}
	var resp wireResponse
	if err := c.dec.Decode(&resp); err != nil {
		return wireResponse{}, fmt.Errorf("sched: recv: %w", err)
	}
	return resp, nil
}

// Decide implements Requester over the wire.
func (c *TCPClient) Decide(app, kernel string) (Decision, error) {
	resp, err := c.roundTrip(wireRequest{Type: msgRequest, App: app, Kernel: kernel})
	if err != nil {
		return Decision{}, err
	}
	return Decision{Target: threshold.Target(resp.Target), ReconfigStarted: resp.Reconfig}, nil
}

// Report implements Requester over the wire. The returned record
// carries only the threshold columns the wire echoes back.
func (c *TCPClient) Report(app string, target threshold.Target, exec time.Duration) (threshold.Record, error) {
	resp, err := c.roundTrip(wireRequest{
		Type: msgReport, App: app, Target: int(target), ExecNS: int64(exec),
	})
	if err != nil {
		return threshold.Record{}, err
	}
	return threshold.Record{App: app, FPGAThr: resp.FPGAThr, ARMThr: resp.ARMThr}, nil
}
