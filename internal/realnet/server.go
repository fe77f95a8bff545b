// Package realnet runs the FrameFeedback system over real TCP
// sockets and the wall clock: a multi-tenant edge inference server
// with the same adaptive batching policy as the simulator, and an edge
// device client driven by the identical controller.Policy
// implementations.
//
// GPU execution and local inference are simulated by calibrated sleeps
// (the models package latency surfaces); everything else — framing,
// concurrency, backpressure, deadline accounting, connection faults —
// is real. This mode exists to demonstrate that the controller code is
// transport-agnostic and to provide runnable ffserver/ffdevice
// binaries.
//
// # Fault model
//
// The transport is built to degrade, never to die:
//
//   - A device that disconnects with frames queued or executing does
//     not crash the server: its session drains in-flight batch replies
//     for up to DrainTimeout (or drops them immediately when
//     DropOnDisconnect is set), then dismantles itself.
//   - A device that stops reading cannot wedge a writer goroutine:
//     every response write carries a WriteTimeout deadline, and a
//     failed write aborts only that session.
//   - The client reconnects on its own (see Dial): while disconnected,
//     every offload attempt is accounted as an immediate timeout, so
//     the FrameFeedback equilibrium T = 0.1·F_s keeps probing and
//     recovers P_o automatically once the server is back.
package realnet

import (
	"errors"
	"io"
	"log"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/models"
	"repro/internal/server"
)

// DefaultDrainTimeout bounds how long a session waits for in-flight
// batch replies after its device disconnects.
const DefaultDrainTimeout = 2 * time.Second

// DefaultWriteTimeout bounds each response write so a stalled device
// cannot wedge its writer goroutine.
const DefaultWriteTimeout = 5 * time.Second

// ServerConfig parameterizes the TCP edge server.
type ServerConfig struct {
	// Addr is the listen address, e.g. ":9771" or "127.0.0.1:0".
	Addr string
	// GPU is the accelerator latency profile; default TeslaV100.
	GPU *models.GPUProfile
	// MaxBatch caps batch sizes; default server.DefaultMaxBatch.
	MaxBatch int
	// TimeScale multiplies every simulated execution latency;
	// < 1 speeds the server up (useful in tests). Default 1.
	TimeScale float64
	// WriteTimeout is the per-response write deadline; default
	// DefaultWriteTimeout. Negative disables it.
	WriteTimeout time.Duration
	// DrainTimeout bounds how long a disconnected session waits for
	// in-flight batch replies before dropping them; default
	// DefaultDrainTimeout. It also bounds how long Close waits for
	// the batcher to finish outstanding work. Negative disables
	// draining (equivalent to DropOnDisconnect for sessions and an
	// immediate hard stop for Close).
	DrainTimeout time.Duration
	// DropOnDisconnect skips the drain entirely: replies for a
	// disconnected device are discarded (and counted as dropped)
	// instead of being flushed to the dead socket.
	DropOnDisconnect bool
	// MaxConns caps concurrent device connections. Once the cap is
	// reached, new connections are shed with a fast reject (the socket
	// is closed immediately, no goroutine or session is spun up), so a
	// connection flood degrades into cheap accept+close churn instead
	// of unbounded goroutine growth. 0 means unlimited.
	MaxConns int
	// RejectLogEvery, when positive, logs every Nth rejection per
	// tenant (the first one always) so shed load is visible without
	// flooding the log. 0 disables rejection logging.
	RejectLogEvery int
	// Instruments, when non-nil, receives runtime telemetry (see
	// NewServerInstruments). Nil disables instrumentation at zero
	// cost.
	Instruments *ServerInstruments
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
}

// ServerStats is a snapshot of the server's cumulative counters.
type ServerStats struct {
	// Submitted counts requests read off device connections.
	Submitted uint64
	// Completed counts requests answered with a classification.
	Completed uint64
	// Rejected counts requests shed by the batcher's overflow rule.
	Rejected uint64
	// Dropped counts replies discarded instead of written — the
	// device disconnected, stalled, or the server shut down first.
	// It overlaps Completed/Rejected: a request whose batch executed
	// after its device vanished is counted in both.
	Dropped uint64
	// Batches counts executed batches.
	Batches uint64
	// ConnsShed counts connections fast-rejected by the MaxConns
	// accept guard.
	ConnsShed uint64
}

// Server is the real-TCP edge inference server.
type Server struct {
	cfg      ServerConfig
	listener net.Listener

	reqCh  chan *frameRec
	doneCh chan struct{}
	wg     sync.WaitGroup
	// readers counts connection read loops, the senders on reqCh. The
	// batcher keeps receiving after doneCh closes until they are all
	// gone, so a frame sent to reqCh is always answered.
	readers sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	// connMu guards conns; Close force-closes every registered
	// connection so blocked read loops unwind immediately.
	connMu  sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool

	// ExtraDelay is added to every batch execution; it can be
	// changed at runtime (atomically, in nanoseconds) to emulate
	// transient server degradation in experiments.
	extraDelay atomic.Int64

	// slowdown multiplies every batch execution time (float64 bits;
	// 0 means the default 1). Scenario daemons drive it through
	// SetSlowdown to emulate a live gpu_stall.
	slowdown atomic.Uint64

	// pending counts requests read off a connection that have not
	// reached session.reply yet; Close's grace period waits for it to
	// reach zero.
	pending atomic.Int64

	stats struct {
		submitted atomic.Uint64
		completed atomic.Uint64
		rejected  atomic.Uint64
		dropped   atomic.Uint64
		batches   atomic.Uint64
		connsShed atomic.Uint64
	}

	// instr is never nil (a zero instrument set is a no-op).
	instr *ServerInstruments
}

// NewServer binds the listener (so the port is known immediately) and
// starts the accept and batcher loops.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.GPU == nil {
		cfg.GPU = models.TeslaV100()
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = server.DefaultMaxBatch
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.TimeScale < 0 {
		return nil, errors.New("realnet: negative TimeScale")
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	} else if cfg.WriteTimeout < 0 {
		cfg.WriteTimeout = 0
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	} else if cfg.DrainTimeout < 0 {
		cfg.DrainTimeout = 0
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	instr := cfg.Instruments
	if instr == nil {
		instr = &ServerInstruments{}
	}
	s := &Server{
		cfg:      cfg,
		listener: ln,
		// Deep enough that readers keep draining their sockets while
		// the batcher is busy; beyond it they block (TCP backpressure).
		reqCh:  make(chan *frameRec, 1024),
		doneCh: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
		instr:  instr,
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.batchLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

// SetExtraDelay changes the artificial per-batch delay used to emulate
// server degradation.
func (s *Server) SetExtraDelay(d time.Duration) { s.extraDelay.Store(int64(d)) }

// SetSlowdown sets the batch service-time multiplier — the live
// counterpart of the simulator's gpu_stall fault. Factors below 1 are
// clamped to 1; SetSlowdown(1) clears the stall.
func (s *Server) SetSlowdown(factor float64) {
	if factor < 1 {
		factor = 1
	}
	s.slowdown.Store(math.Float64bits(factor))
	s.instr.Slowdown.Set(factor)
}

// Slowdown returns the current batch service-time multiplier.
func (s *Server) Slowdown() float64 {
	bits := s.slowdown.Load()
	if bits == 0 {
		return 1
	}
	return math.Float64frombits(bits)
}

// Stats reports cumulative counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Submitted: s.stats.submitted.Load(),
		Completed: s.stats.completed.Load(),
		Rejected:  s.stats.rejected.Load(),
		Dropped:   s.stats.dropped.Load(),
		Batches:   s.stats.batches.Load(),
		ConnsShed: s.stats.connsShed.Load(),
	}
}

// Close shuts the server down gracefully: it stops accepting, waits up
// to DrainTimeout for already-submitted requests to reach a terminal
// outcome (so connected devices get their in-flight answers), then
// force-closes every connection, stops the loops and waits for all
// goroutines. Requests still unresolved after the grace period are
// dropped, never panicked on. Close is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.listener.Close()

		// Grace period: let the batcher finish what devices already
		// submitted. Live devices can keep submitting during the
		// grace window, so this is a bounded wait, not a guarantee.
		deadline := time.Now().Add(s.cfg.DrainTimeout)
		for time.Now().Before(deadline) {
			if s.pending.Load() == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}

		// closing is set before doneCh closes: every reader the
		// batcher's shutdown must outwait is registered by then.
		s.connMu.Lock()
		s.closing = true
		close(s.doneCh)
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// registerConn tracks a live connection so Close can unblock its read
// loop, and counts its read loop in s.readers; it reports false when the
// server is already shutting down or the MaxConns accept guard sheds the
// connection.
func (s *Server) registerConn(conn net.Conn) (ok, shed bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closing {
		return false, false
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return false, true
	}
	s.conns[conn] = struct{}{}
	s.readers.Add(1)
	return true, false
}

func (s *Server) unregisterConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Conns reports the number of live device connections.
func (s *Server) Conns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// The accept guard runs here, before any goroutine or session
		// exists for the connection, so a flood costs one accept+close
		// per attempt and nothing else.
		ok, shed := s.registerConn(conn)
		if !ok {
			if shed {
				// Counted before the close: a peer that has seen the
				// close finds itself in ConnsShed.
				s.stats.connsShed.Add(1)
				s.instr.ConnsShed.Inc()
				s.logf("realnet: shed connection from %v (MaxConns=%d reached)", conn.RemoteAddr(), s.cfg.MaxConns)
			}
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// handleConn reads requests from one device connection (already
// registered by the accept loop) and forwards them to the batcher.
// Responses travel through a session whose writer goroutine outlives
// this read loop until every in-flight reply has drained (see
// session).
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.unregisterConn(conn)
	s.logf("realnet: device connected from %v", conn.RemoteAddr())
	s.instr.Sessions.Add(1)
	defer s.instr.Sessions.Add(-1)

	ss := newSession(s, conn)
	ss.startWriter() // closes conn when the session is fully drained
	ss.dec.Reset(conn)

	for {
		f, err := ss.readFrame()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				s.logf("realnet: read error from %v: %v", conn.RemoteAddr(), err)
			}
			break
		}
		s.stats.submitted.Add(1)
		s.instr.Submitted.Inc()
		s.pending.Add(1)
		ss.inflight.Add(1)
		s.reqCh <- f // the batcher owns f from here
	}
	ss.dec.Reset(nil)
	s.readers.Done()

	timeout := s.cfg.DrainTimeout
	if s.cfg.DropOnDisconnect {
		timeout = 0
	}
	ss.drain(timeout)
	s.logf("realnet: device %v disconnected", conn.RemoteAddr())
}

// batchLoop is the wall-clock twin of the simulator's adaptive
// batcher: requests accumulate per model while the "GPU" sleeps
// through the previous batch; each new batch takes up to MaxBatch and
// rejects the rest of its queue. It owns every frame from reqCh until
// it hands the frame to its session's reply.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	queues := make(map[models.Model][]*frameRec)
	order := models.All()
	rrNext := 0
	// The executing batch, empty while the "GPU" is idle. One timer
	// serves every batch: it is armed only while busy and always
	// received from (or stopped and drained) before the next Reset.
	batch := make([]*frameRec, 0, s.cfg.MaxBatch)
	busy := false
	execDone := time.NewTimer(time.Hour)
	if !execDone.Stop() {
		<-execDone.C
	}

	// Per-tenant rejection accounting. Only this goroutine rejects, so
	// the map needs no lock; the exported counter is the CounterVec.
	rejByTenant := make(map[uint32]uint64)
	rejectOverflow := func(f *frameRec) {
		s.stats.rejected.Add(1)
		tenant := f.req.Stream
		s.instr.Rejected.WithUint(uint64(tenant)).Inc()
		rejByTenant[tenant]++
		if n := s.cfg.RejectLogEvery; n > 0 && (rejByTenant[tenant]-1)%uint64(n) == 0 {
			s.logf("realnet: tenant %d: rejected frame %d (%d shed so far, logging every %d)",
				tenant, f.req.FrameID, rejByTenant[tenant], n)
		}
		f.ss.reply(f, true, 0)
	}

	startBatch := func() {
		var m models.Model
		found := false
		for i := 0; i < len(order); i++ {
			cand := order[(rrNext+i)%len(order)]
			if len(queues[cand]) > 0 {
				m = cand
				rrNext = (rrNext + i + 1) % len(order)
				found = true
				break
			}
		}
		if !found {
			return
		}
		q := queues[m]
		s.instr.QueueDepth.Observe(float64(len(q)))
		take := len(q)
		if take > s.cfg.MaxBatch {
			take = s.cfg.MaxBatch
		}
		batch = append(batch, q[:take]...)
		for _, f := range q[take:] {
			rejectOverflow(f)
		}
		// The queue keeps its initial storage, the pointers it no longer
		// owns cleared; storage that a burst being shed grew goes with
		// the burst.
		if cap(q) <= s.cfg.MaxBatch {
			clear(q)
			queues[m] = q[:0]
		} else {
			queues[m] = nil
		}

		lat := time.Duration(float64(s.cfg.GPU.Curve(m).Latency(take)) * s.cfg.TimeScale * s.Slowdown())
		lat += time.Duration(s.extraDelay.Load())
		busy = true
		s.stats.batches.Add(1)
		s.instr.Batches.Inc()
		execDone.Reset(lat)
	}

	// rejectAll resolves requests that will never execute (shutdown);
	// reply accounts them as dropped when nobody can receive them.
	rejectAll := func(fs []*frameRec) {
		for _, f := range fs {
			f.ss.reply(f, true, 0)
		}
	}

	for {
		select {
		case f := <-s.reqCh:
			q := queues[f.req.Model]
			if q == nil {
				q = make([]*frameRec, 0, s.cfg.MaxBatch)
			}
			queues[f.req.Model] = append(q, f)
			if !busy {
				startBatch()
			}
		case <-execDone.C:
			n := uint16(len(batch))
			for _, f := range batch {
				s.stats.completed.Add(1)
				s.instr.Completed.Inc()
				s.instr.BatchSize.WithUint(uint64(f.req.Stream)).Observe(float64(n))
				f.ss.reply(f, false, n)
			}
			clear(batch)
			batch = batch[:0]
			busy = false
			startBatch()
		case <-s.doneCh:
			// Cut the executing batch short: every tracked request must
			// reach reply or session drains would deadlock. That
			// includes frames still being sent to reqCh, so keep
			// receiving until the last read loop has ended (Close has
			// closed their sockets).
			execDone.Stop()
			rejectAll(batch)
			for _, q := range queues {
				rejectAll(q)
			}
			readersDone := make(chan struct{})
			go func() {
				s.readers.Wait()
				close(readersDone)
			}()
			for reading := true; reading; {
				select {
				case f := <-s.reqCh:
					f.ss.reply(f, true, 0)
				case <-readersDone:
					reading = false
				}
			}
			for len(s.reqCh) > 0 {
				f := <-s.reqCh
				f.ss.reply(f, true, 0)
			}
			return
		}
	}
}
