package realnet

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/controller"
	"repro/internal/netproto"
)

// Fault-injection tests: connections die mid-batch, servers restart
// mid-run, and the transport must degrade — never panic, never wedge.

// floodRaw writes n well-formed requests on a raw connection.
func floodRaw(t *testing.T, conn net.Conn, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := &netproto.Request{
			Stream:           7,
			FrameID:          uint64(i),
			Model:            0, // default model is valid
			CapturedUnixNano: time.Now().UnixNano(),
			Payload:          make([]byte, 1024),
		}
		if err := netproto.WriteRequest(conn, req); err != nil {
			t.Fatalf("flood write %d: %v", i, err)
		}
	}
}

// TestServerSurvivesMidBatchDisconnect is the regression test for the
// send-on-closed-channel crash: a device floods a batch, hard-closes
// its socket while the batch is still executing, and the server must
// finish the batch, drop the unanswerable replies, and keep serving
// other connections. Against the pre-session server this panics
// (reply() raced the read loop's close(respCh)).
//
// Deliberately uses only the seed-era API surface so it can be run
// unmodified against the old implementation.
func TestServerSurvivesMidBatchDisconnect(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Slow batches down so the disconnect lands mid-execution.
	srv.SetExtraDelay(150 * time.Millisecond)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	floodRaw(t, conn, 25)
	time.Sleep(30 * time.Millisecond) // first batch is now executing
	conn.Close()                      // hard disconnect with frames in flight

	// Let every in-flight batch complete and its replies resolve; the
	// old server panics (crashing the test binary) inside this window.
	time.Sleep(800 * time.Millisecond)

	// The server must still serve a legitimate client.
	srv.SetExtraDelay(0)
	c, err := Dial(ClientConfig{
		Addr: srv.Addr().String(), FS: 60, TimeScale: 0.1,
		Tick: 100 * time.Millisecond, Deadline: 60 * time.Millisecond,
		Policy: baselines.AlwaysOffload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOffloadRate(60)
	time.Sleep(600 * time.Millisecond)
	if st := c.Stats(); st.OffloadOK == 0 {
		t.Fatalf("server unhealthy after mid-batch disconnect: %+v", st)
	}
}

// TestMidBatchDisconnectAccounting checks the drain bookkeeping: every
// submitted request still reaches exactly one execution outcome
// (completed or rejected) when the device vanishes, and the replies
// that could not be written are visible in the Dropped counter.
func TestMidBatchDisconnectAccounting(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: 0.1,
		DrainTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetExtraDelay(100 * time.Millisecond)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	floodRaw(t, conn, 20)
	time.Sleep(20 * time.Millisecond)
	conn.Close()

	// The drops are counted by the session's writer when its write to
	// the dead socket fails, a moment after the batcher counted the last
	// request complete: wait for both.
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := srv.Stats()
		settled := st.Submitted == 20 && st.Completed+st.Rejected == 20
		if settled && st.Dropped > 0 {
			return
		}
		if time.Now().After(deadline) {
			if settled {
				t.Fatalf("expected some dropped replies after disconnect: %+v", st)
			}
			t.Fatalf("requests never settled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientReconnectsAfterServerRestart kills the server mid-run and
// restarts it on the same port: the client must reconnect on its own
// and FrameFeedback must recover P_o > 0 without a process restart —
// the paper's §V network-degradation scenario at the socket level.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv := startServer(t)
	addr := srv.Addr().String()
	fb := controller.NewFrameFeedback(controller.Config{InitialPo: 60})
	c := dial(t, srv, ClientConfig{
		FS: 60, Policy: fb,
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	c.SetOffloadRate(60)
	time.Sleep(500 * time.Millisecond)
	if st := c.Stats(); st.OffloadOK == 0 {
		t.Fatalf("no offloads before the outage: %+v", st)
	}

	// Outage: the server dies with the client mid-stream.
	if err := srv.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	time.Sleep(800 * time.Millisecond)
	outagePo := c.Po()
	if outagePo > 30 {
		t.Fatalf("controller did not back off during outage: Po=%v", outagePo)
	}
	if st := c.Stats(); st.Disconnects == 0 {
		t.Fatalf("client never observed the disconnect: %+v", st)
	}

	// Restart on the same port (retry: the OS may briefly hold it).
	var srv2 *Server
	var err error
	for i := 0; i < 50; i++ {
		srv2, err = NewServer(ServerConfig{Addr: addr, TimeScale: fastScale})
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("could not restart server on %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })

	before := c.Stats()
	time.Sleep(2 * time.Second)
	after := c.Stats()
	if after.Reconnects == 0 {
		t.Fatalf("client never reconnected: %+v", after)
	}
	if gained := after.OffloadOK - before.OffloadOK; gained < 10 {
		t.Fatalf("only %d successful offloads after server restart", gained)
	}
	if po := c.Po(); po <= outagePo {
		t.Fatalf("controller did not recover after reconnect: %v -> %v", outagePo, po)
	}
}

// TestDisconnectedOffloadsCountAsTimeouts: with the server gone and
// reconnection effectively impossible, every offload attempt must
// resolve as a timeout immediately, keeping T > 0 so the controller
// settles at its standing-probe equilibrium instead of freezing.
func TestDisconnectedOffloadsCountAsTimeouts(t *testing.T) {
	srv := startServer(t)
	fb := controller.NewFrameFeedback(controller.Config{InitialPo: 60})
	c := dial(t, srv, ClientConfig{
		FS: 60, Policy: fb,
		ReconnectMin: 20 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	c.SetOffloadRate(60)
	time.Sleep(400 * time.Millisecond)
	srv.Close() // outage with no recovery

	before := c.Stats()
	time.Sleep(time.Second)
	after := c.Stats()
	if gained := after.OffloadAttempts - before.OffloadAttempts; gained == 0 {
		t.Fatal("controller stopped attempting offloads during the outage (no standing probe)")
	}
	if after.Timeouts() == before.Timeouts() {
		t.Fatalf("disconnected offloads were not accounted as timeouts: %+v", after)
	}
	// The equilibrium keeps Po small but nonzero pressure exists; it
	// must not exceed the tolerated band by much.
	if po := c.Po(); po > 20 {
		t.Fatalf("Po = %v during a total outage, want near 0.1*FS", po)
	}
}

// TestClientCloseConcurrent: Close used to race close(stopCh) against
// itself; with sync.Once any number of concurrent Closes is safe.
func TestClientCloseConcurrent(t *testing.T) {
	srv := startServer(t)
	c, err := Dial(ClientConfig{
		Addr: srv.Addr().String(), FS: 30, TimeScale: fastScale,
		Policy: baselines.AlwaysOffload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Close()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent Close deadlocked")
	}
}

// TestDeadlineSweepFinerThanTick: with a 1 s tick and a 100 ms
// deadline, timed-out frames must be detected on the finer sweep
// timer, not up to ~900 ms late at the next tick.
func TestDeadlineSweepFinerThanTick(t *testing.T) {
	// A listener that accepts and then ignores everything: offloads
	// are swallowed, never answered.
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
			go func() {
				buf := make([]byte, 4096)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()

	c, err := Dial(ClientConfig{
		Addr: ln.Addr().String(), FS: 60, TimeScale: fastScale,
		Tick:     time.Second,
		Deadline: 100 * time.Millisecond,
		Policy:   baselines.AlwaysOffload{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOffloadRate(60)

	// First frames go out within ~50 ms and pass their 100 ms
	// deadline by ~150 ms. Well before the 1 s tick they must already
	// be counted.
	deadline := time.Now().Add(600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if c.Stats().OffloadTimedOut > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no timeout counted within 600 ms (sweep still quantized to the tick?): %+v", c.Stats())
}

// stallConn is a writeDeadlineConn whose writes always fail with a
// timeout once a deadline has been set — a device that stopped
// reading, as seen by the writer after the kernel buffer filled.
type stallConn struct {
	mu        sync.Mutex
	deadlines int
	closed    bool
}

type timeoutErr struct{}

func (timeoutErr) Error() string { return "i/o timeout" }
func (timeoutErr) Timeout() bool { return true }

func (s *stallConn) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deadlines == 0 {
		// Without a deadline this fake would block forever; failing
		// the test is more useful than hanging it.
		return 0, errors.New("write without deadline")
	}
	return 0, timeoutErr{}
}

func (s *stallConn) SetWriteDeadline(time.Time) error {
	s.mu.Lock()
	s.deadlines++
	s.mu.Unlock()
	return nil
}

func (s *stallConn) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return nil
}

// TestSessionWriteTimeoutAbortsStalledDevice drives a session directly
// with a stalled connection: the writer must apply a deadline, abort
// on the failed write, drop the remaining replies, and drain without
// wedging.
func TestSessionWriteTimeoutAbortsStalledDevice(t *testing.T) {
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: fastScale,
		WriteTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn := &stallConn{}
	ss := newSession(srv, conn)
	ss.startWriter()

	const n = 10
	for i := 0; i < n; i++ {
		f := newFrame(ss)
		f.req.FrameID = uint64(i)
		srv.pending.Add(1)
		ss.inflight.Add(1)
		go ss.reply(f, false, 1)
	}
	done := make(chan struct{})
	go func() {
		ss.drain(time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("session drain wedged behind a stalled device")
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.deadlines == 0 {
		t.Fatal("writer never set a write deadline")
	}
	if !conn.closed {
		t.Fatal("stalled connection was not closed")
	}
	if got := srv.Stats().Dropped; got == 0 {
		t.Fatalf("no replies counted as dropped, want > 0 of %d", n)
	}
}

// TestServerCloseIsIdempotent: double Close must not panic or block.
func TestServerCloseIsIdempotent(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: fastScale})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("repeated Close blocked")
	}
}
