package realnet

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/frame"
	"repro/internal/models"
	"repro/internal/netproto"
	"repro/internal/rng"
	"repro/internal/simtime"
	"repro/internal/spans"
)

// Reconnection defaults: exponential backoff with jitter between
// ReconnectMin and ReconnectMax, and a bounded dial attempt.
const (
	DefaultReconnectMin = 100 * time.Millisecond
	DefaultReconnectMax = 5 * time.Second
	DefaultDialTimeout  = 2 * time.Second
)

// errDisconnected reports an offload attempted while the transport has
// no live connection; the frame is accounted as an immediate timeout.
var errDisconnected = errors.New("realnet: not connected")

// ClientConfig parameterizes an edge-device client.
type ClientConfig struct {
	// Addr is the server address.
	Addr string
	// Stream identifies this device at the server.
	Stream uint32
	// Profile is the device hardware; default Pi4B14.
	Profile *models.DeviceProfile
	// Model is the classifier; default MobileNetV3Small.
	Model models.Model
	// FS is the source frame rate; default 30.
	FS float64
	// Deadline is the end-to-end offload deadline; default 250 ms.
	Deadline time.Duration
	// Tick is the controller measurement interval; default 1 s.
	Tick time.Duration
	// Policy steers the offload rate; default FrameFeedback with
	// paper settings.
	Policy controller.Policy
	// TimeScale multiplies local inference latency (match the
	// server's TimeScale when speeding up tests). Default 1.
	TimeScale float64
	// PayloadBytes is the per-frame upload size; defaults to the
	// evaluation's ~29 KB (380×380 @ q85).
	PayloadBytes int
	// Seed drives local latency jitter and reconnect backoff jitter;
	// default 1.
	Seed uint64
	// ReconnectMin and ReconnectMax bound the exponential backoff
	// between reconnection attempts after the connection drops;
	// defaults DefaultReconnectMin / DefaultReconnectMax. A negative
	// ReconnectMin disables reconnection entirely (the client stays
	// disconnected, every offload times out — the pre-fault-tolerance
	// behaviour).
	ReconnectMin, ReconnectMax time.Duration
	// DialTimeout bounds each (re)connection attempt; default
	// DefaultDialTimeout.
	DialTimeout time.Duration
	// ReconnectBudget caps consecutive failed redial attempts within
	// one outage. When the budget is exhausted the client goes
	// terminal: reconnection stops, Terminated() fires, and
	// TerminalErr reports the last dial error — so a permanently dead
	// server surfaces as a hard failure instead of silent infinite
	// retry. 0 means unlimited (the default). A successful reconnect
	// resets the budget.
	ReconnectBudget int
	// WriteTimeout bounds each message write so a dead uplink surfaces
	// as an error instead of a wedged capture loop; default Deadline
	// (an upload that cannot finish within the deadline is already a
	// timeout). Negative disables it.
	WriteTimeout time.Duration
	// Trace enables trace-ID propagation: every non-probe request
	// carries the frame's deterministic trace ID (see spans.TraceID)
	// as the protocol's optional trailing field, the server echoes it
	// back, and extreme latency observations store it as a histogram
	// exemplar. Off by default; untraced traffic is byte-identical to
	// the pre-trace protocol.
	Trace bool
	// Instruments, when non-nil, receives runtime telemetry (see
	// NewClientInstruments). Nil disables instrumentation at zero
	// cost.
	Instruments *ClientInstruments
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
}

// ClientStats is a snapshot of the device's cumulative counters plus
// the controller's current rate.
type ClientStats struct {
	Captured        uint64
	OffloadAttempts uint64
	OffloadOK       uint64
	OffloadTimedOut uint64
	OffloadRejected uint64
	LocalDone       uint64
	LocalDropped    uint64
	// Reconnects counts successful re-dials after a connection drop.
	Reconnects uint64
	// Disconnects counts connection drops observed.
	Disconnects uint64
	Po          float64
}

// Timeouts returns T's numerator: deadline misses plus rejections.
func (s ClientStats) Timeouts() uint64 { return s.OffloadTimedOut + s.OffloadRejected }

// Client is the wall-clock edge device: it captures synthetic frames
// at FS, splits them between a (sleep-simulated) local worker and the
// TCP uplink according to the policy's offload rate, and tracks the
// end-to-end deadline of every offloaded frame.
//
// The transport is fault tolerant: when the connection drops, a
// background dialer re-establishes it with jittered exponential
// backoff, and in the meantime every offload attempt resolves as an
// immediate timeout. The controller therefore keeps observing T > 0
// through an outage, settles at the paper's standing-probe equilibrium
// T = 0.1·F_s, and raises P_o again on its own as soon as a reconnect
// succeeds — no process restart needed.
type Client struct {
	cfg ClientConfig

	// writeMu serializes message writes: the capture loop and the
	// probe sender share the connection. It also guards the reused
	// payload and encode buffers.
	writeMu sync.Mutex
	payload []byte // zeroed virtual JPEG bytes, reused across frames
	encBuf  []byte // wire-format scratch, reused across frames

	// connMu guards the live connection; nil while disconnected.
	connMu sync.Mutex
	conn   net.Conn

	// connCh hands freshly dialed connections to receiveLoop;
	// redialCh kicks the dialer after a drop.
	connCh   chan net.Conn
	redialCh chan struct{}

	mu          sync.Mutex
	stats       ClientStats
	prev        ClientStats
	po          float64
	credit      float64
	outstanding map[uint64]time.Time // frameID → capture time
	localBusy   bool
	localQueue  int

	// Heartbeat probe state (used when the policy implements
	// controller.Prober). Probe frame IDs live in a disjoint ID
	// space so they never collide with camera frames.
	probeSeq     uint64
	probeSentAt  time.Time
	probePending bool
	probeOK      bool
	probeValid   bool

	rng     *rng.Stream // local-latency jitter; guarded by mu
	dialRng *rng.Stream // backoff jitter; owned by redialLoop

	dec netproto.Decoder // response reader; owned by receiveLoop

	// Terminal state: set once when the reconnect budget runs out.
	termOnce sync.Once
	termCh   chan struct{}
	termErr  error // guarded by mu

	// instr is never nil (a zero instrument set is a no-op), so the
	// frame path carries no instrumentation branches.
	instr *ClientInstruments

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// probeIDBase separates probe frame IDs from camera frame IDs.
const probeIDBase = uint64(1) << 63

// Dial connects to the server and starts the capture, receive, control
// and reconnect loops. The initial dial is synchronous (so a bad
// address fails fast); subsequent drops are handled by the reconnect
// loop. Stop with Close.
func Dial(cfg ClientConfig) (*Client, error) {
	if cfg.Profile == nil {
		cfg.Profile = models.Pi4B14()
	}
	if !cfg.Model.Valid() {
		return nil, errors.New("realnet: invalid model")
	}
	if cfg.FS <= 0 {
		cfg.FS = 30
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 250 * time.Millisecond
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Second
	}
	if cfg.Policy == nil {
		cfg.Policy = controller.NewFrameFeedback(controller.Config{})
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = frame.DefaultSizeModel().MeanBytes(frame.Res380, 85)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ReconnectMin == 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax == 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = cfg.ReconnectMin
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = cfg.Deadline
	} else if cfg.WriteTimeout < 0 {
		cfg.WriteTimeout = 0
	}
	conn, err := net.DialTimeout("tcp", cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	instr := cfg.Instruments
	if instr == nil {
		instr = &ClientInstruments{}
	}
	root := rng.New(cfg.Seed)
	c := &Client{
		cfg:         cfg,
		conn:        conn,
		payload:     make([]byte, cfg.PayloadBytes),
		connCh:      make(chan net.Conn, 1),
		redialCh:    make(chan struct{}, 1),
		rng:         root.Split(1),
		dialRng:     root.Split(2),
		outstanding: make(map[uint64]time.Time),
		stopCh:      make(chan struct{}),
		termCh:      make(chan struct{}),
		instr:       instr,
	}
	c.instr.LinkUp.SetBool(true)
	c.connCh <- conn
	c.wg.Add(4)
	go c.captureLoop()
	go c.receiveLoop()
	go c.controlLoop()
	go c.redialLoop()
	return c, nil
}

// Close stops all loops and closes the connection. It is idempotent
// and safe to call concurrently.
func (c *Client) Close() error {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	c.connMu.Unlock()
	c.wg.Wait()
	// A conn dialed but not yet collected by receiveLoop would leak.
	select {
	case conn := <-c.connCh:
		conn.Close()
	default:
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Po = c.po
	return s
}

// Connected reports whether the transport currently has a live
// connection.
func (c *Client) Connected() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn != nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

// currentConn returns the live connection, or nil while disconnected.
func (c *Client) currentConn() net.Conn {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn
}

// dropConn retires a connection after an I/O error. Only the first
// caller for a given connection wins; it closes the socket, counts the
// disconnect, and kicks the redial loop (unless the client is
// stopping or reconnection is disabled).
func (c *Client) dropConn(old net.Conn) {
	if old == nil {
		return
	}
	c.connMu.Lock()
	isCurrent := c.conn == old
	if isCurrent {
		c.conn = nil
	}
	c.connMu.Unlock()
	old.Close()
	if !isCurrent {
		return
	}
	c.mu.Lock()
	c.stats.Disconnects++
	c.mu.Unlock()
	c.instr.Disconnects.Inc()
	c.instr.LinkUp.SetBool(false)
	select {
	case <-c.stopCh:
		return
	default:
	}
	c.logf("realnet: connection lost, reconnecting")
	if c.cfg.ReconnectMin < 0 {
		return // reconnection disabled
	}
	select {
	case c.redialCh <- struct{}{}:
	default: // a redial is already pending
	}
}

// redialLoop re-establishes the connection after drops: jittered
// exponential backoff from ReconnectMin up to ReconnectMax, until the
// client closes or the ReconnectBudget (when set) runs out of
// consecutive failed attempts — then the client goes terminal. Each
// success hands the fresh connection to receiveLoop and resets both
// the backoff and the budget. The live attempt counter and the
// next-retry backoff are exported as telemetry gauges so a stuck
// reconnect is visible from /metrics.
func (c *Client) redialLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopCh:
			return
		case <-c.redialCh:
		}
		backoff := c.cfg.ReconnectMin
		for attempt := 1; ; attempt++ {
			select {
			case <-c.stopCh:
				return
			default:
			}
			c.instr.ReconnectAttempt.Set(int64(attempt))
			conn, err := net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout)
			if err == nil {
				c.connMu.Lock()
				c.conn = conn
				c.connMu.Unlock()
				c.mu.Lock()
				c.stats.Reconnects++
				c.mu.Unlock()
				c.instr.Reconnects.Inc()
				c.instr.LinkUp.SetBool(true)
				c.instr.ReconnectAttempt.Set(0)
				c.instr.ReconnectNextIn.Set(0)
				c.logf("realnet: reconnected to %s (attempt %d)", c.cfg.Addr, attempt)
				select {
				case c.connCh <- conn:
				case <-c.stopCh:
					return
				}
				break
			}
			if b := c.cfg.ReconnectBudget; b > 0 && attempt >= b {
				c.terminate(fmt.Errorf("realnet: reconnect budget exhausted after %d attempts: %w", attempt, err))
				return
			}
			sleep := time.Duration(c.dialRng.Jitter(float64(backoff), 0.2))
			c.instr.ReconnectNextIn.Set(sleep.Seconds())
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-c.stopCh:
				timer.Stop()
				return
			}
			backoff *= 2
			if backoff > c.cfg.ReconnectMax {
				backoff = c.cfg.ReconnectMax
			}
		}
	}
}

// terminate records the terminal error and fires Terminated. The
// capture and control loops keep running (every offload is an
// immediate timeout, exactly as during an outage); the caller decides
// whether to Close.
func (c *Client) terminate(err error) {
	c.termOnce.Do(func() {
		c.mu.Lock()
		c.termErr = err
		c.mu.Unlock()
		c.instr.ReconnectExhausted.SetBool(true)
		c.instr.ReconnectNextIn.Set(0)
		c.logf("%v", err)
		close(c.termCh)
	})
}

// Terminated fires when the client gave up reconnecting because the
// ReconnectBudget ran out. It never fires with an unset budget.
func (c *Client) Terminated() <-chan struct{} { return c.termCh }

// TerminalErr returns the error that terminated reconnection, or nil
// while the client is still (re)connecting normally.
func (c *Client) TerminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.termErr
}

// captureLoop emits frames at FS and routes each one.
func (c *Client) captureLoop() {
	defer c.wg.Done()
	interval := time.Duration(float64(time.Second) / c.cfg.FS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var frameID uint64
	for {
		select {
		case <-ticker.C:
			c.handleFrame(frameID)
			frameID++
		case <-c.stopCh:
			return
		}
	}
}

func (c *Client) handleFrame(id uint64) {
	c.instr.Captured.Inc()
	c.mu.Lock()
	c.stats.Captured++
	c.credit += c.po / c.cfg.FS
	offload := false
	if c.credit >= 1 {
		c.credit--
		offload = true
	}
	if offload {
		c.stats.OffloadAttempts++
		c.outstanding[id] = time.Now()
		c.mu.Unlock()
		c.instr.InFlight.Add(1)
		c.sendRequest(id)
		return
	}
	// Local path: bounded queue of 2 behind the worker.
	if c.localBusy && c.localQueue >= 2 {
		c.stats.LocalDropped++
		c.mu.Unlock()
		c.instr.LocalDropped.Inc()
		return
	}
	if c.localBusy {
		c.localQueue++
		c.mu.Unlock()
		return
	}
	c.localBusy = true
	c.mu.Unlock()
	go c.localWork()
}

// localWork simulates one local inference (plus any queued backlog)
// with calibrated sleeps.
func (c *Client) localWork() {
	for {
		lat := float64(c.cfg.Profile.LocalLatency(c.cfg.Model)) * c.cfg.TimeScale
		c.mu.Lock()
		jitter := c.rng.Jitter(lat, 0.08)
		c.mu.Unlock()
		timer := time.NewTimer(time.Duration(jitter))
		select {
		case <-timer.C:
		case <-c.stopCh:
			timer.Stop()
			return
		}
		c.mu.Lock()
		c.stats.LocalDone++
		c.instr.LocalDone.Inc()
		if c.localQueue > 0 {
			c.localQueue--
			c.mu.Unlock()
			continue
		}
		c.localBusy = false
		c.mu.Unlock()
		return
	}
}

// writeRequest encodes and writes one request on the live connection,
// reusing the payload and encode buffers under writeMu. While
// disconnected it fails immediately with errDisconnected; a write
// error retires the connection (triggering a redial).
func (c *Client) writeRequest(id uint64, probe bool) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	conn := c.currentConn()
	if conn == nil {
		return errDisconnected
	}
	req := &netproto.Request{
		Stream:           c.cfg.Stream,
		FrameID:          id,
		Model:            c.cfg.Model,
		CapturedUnixNano: time.Now().UnixNano(),
		Probe:            probe,
		Payload:          c.payload,
	}
	if !probe {
		req.TraceID = c.traceID(id)
	}
	var err error
	c.encBuf, err = netproto.AppendRequest(c.encBuf[:0], req)
	if err != nil {
		return err
	}
	if c.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
	}
	if _, err := conn.Write(c.encBuf); err != nil {
		c.dropConn(conn)
		return err
	}
	return nil
}

func (c *Client) sendRequest(id uint64) {
	if err := c.writeRequest(id, false); err != nil {
		// Disconnected ⇒ the attempt counts as an immediate timeout:
		// T keeps feeding the controller through an outage, so the
		// standing-probe equilibrium (and recovery) works at the
		// socket level too.
		if err != errDisconnected {
			c.logf("realnet: send failed: %v", err)
		}
		c.resolveSendFailure(id)
	}
}

// traceID returns the frame's deterministic trace identifier, or 0
// when trace propagation is off (probe IDs never get one: they live in
// a disjoint high-bit ID space that would alias camera frames after
// the 40-bit mask).
func (c *Client) traceID(id uint64) uint64 {
	if !c.cfg.Trace || id >= probeIDBase {
		return 0
	}
	return spans.TraceID(int(c.cfg.Stream), id)
}

// resolveSendFailure accounts a frame whose send failed as an
// immediate timeout; a frame already resolved (e.g. swept) is ignored.
func (c *Client) resolveSendFailure(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sentAt, ok := c.outstanding[id]
	if !ok {
		return
	}
	delete(c.outstanding, id)
	c.stats.OffloadTimedOut++
	c.instr.observeOutcome(OutcomeTimeout, time.Since(sentAt), c.traceID(id))
}

// completeOffload resolves an outstanding frame against its response;
// a frame already resolved (e.g. swept as timed out) is ignored.
func (c *Client) completeOffload(id uint64, rejected bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sentAt, ok := c.outstanding[id]
	if !ok {
		return
	}
	delete(c.outstanding, id)
	elapsed := time.Since(sentAt)
	var status OutcomeStatus
	switch {
	case rejected:
		c.stats.OffloadRejected++
		status = OutcomeRejected
	case elapsed <= c.cfg.Deadline:
		c.stats.OffloadOK++
		status = OutcomeOK
	default:
		c.stats.OffloadTimedOut++
		status = OutcomeTimeout
	}
	c.instr.observeOutcome(status, elapsed, c.traceID(id))
}

// receiveLoop matches responses against outstanding frames and checks
// the end-to-end deadline. It survives connection drops: when a read
// fails it retires the connection and waits for the redial loop to
// hand over a fresh one.
func (c *Client) receiveLoop() {
	defer c.wg.Done()
	for {
		var conn net.Conn
		select {
		case conn = <-c.connCh:
		case <-c.stopCh:
			return
		}
		c.readConn(conn)
		select {
		case <-c.stopCh:
			return
		default:
		}
	}
}

// readConn consumes responses from one connection until it fails.
func (c *Client) readConn(conn net.Conn) {
	defer c.dropConn(conn)
	c.dec.Reset(conn)
	defer c.dec.Reset(nil)
	var res netproto.Response
	for {
		if err := c.dec.ReadResponse(&res); err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				select {
				case <-c.stopCh: // expected during shutdown
				default:
					c.logf("realnet: receive failed: %v", err)
				}
			}
			return
		}
		id := res.FrameID
		if id >= probeIDBase {
			c.mu.Lock()
			if c.probePending && id == probeIDBase+c.probeSeq {
				c.probePending = false
				c.probeValid = true
				c.probeOK = !res.Rejected && time.Since(c.probeSentAt) <= c.cfg.Deadline
			}
			c.mu.Unlock()
			continue
		}
		c.completeOffload(id, res.Rejected)
	}
}

// sweepDeadlines resolves outstanding frames (and the pending probe)
// past their deadline as timeouts, whether or not a late response ever
// lands.
func (c *Client) sweepDeadlines(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, sentAt := range c.outstanding {
		if now.Sub(sentAt) > c.cfg.Deadline {
			delete(c.outstanding, id)
			c.stats.OffloadTimedOut++
			c.instr.observeOutcome(OutcomeTimeout, now.Sub(sentAt), c.traceID(id))
		}
	}
	if c.probePending && now.Sub(c.probeSentAt) > c.cfg.Deadline {
		c.probePending = false
		c.probeValid = true
		c.probeOK = false
	}
}

// sweepInterval returns how often the deadline sweep runs. Sweeping
// only at the measurement tick would count a timed-out frame up to
// Tick−Deadline late and skew that tick's T, so the sweep runs at
// min(Tick, Deadline/2).
func (c *Client) sweepInterval() time.Duration {
	d := c.cfg.Deadline / 2
	if d > c.cfg.Tick {
		d = c.cfg.Tick
	}
	if d <= 0 {
		d = c.cfg.Tick
	}
	return d
}

// controlLoop runs the policy at the measurement interval and the
// deadline sweep on a finer timer.
func (c *Client) controlLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	sweeper := time.NewTicker(c.sweepInterval())
	defer sweeper.Stop()
	start := time.Now()
	for {
		select {
		case now := <-sweeper.C:
			c.sweepDeadlines(now)
			continue
		case <-ticker.C:
		case <-c.stopCh:
			return
		}
		now := time.Now()
		c.sweepDeadlines(now)

		c.mu.Lock()
		cur := c.stats
		d := ClientStats{
			OffloadTimedOut: cur.OffloadTimedOut - c.prev.OffloadTimedOut,
			OffloadRejected: cur.OffloadRejected - c.prev.OffloadRejected,
			OffloadOK:       cur.OffloadOK - c.prev.OffloadOK,
			LocalDone:       cur.LocalDone - c.prev.LocalDone,
		}
		c.prev = cur
		po := c.po
		c.mu.Unlock()

		tickSec := c.cfg.Tick.Seconds()
		m := controller.Measurement{
			Now:       simtime.Time(now.Sub(start)),
			FS:        c.cfg.FS,
			Po:        po,
			T:         float64(d.OffloadTimedOut+d.OffloadRejected) / tickSec,
			Pl:        float64(d.LocalDone) / tickSec,
			OffloadOK: float64(d.OffloadOK) / tickSec,
		}
		wantsProbe := false
		if p, ok := c.cfg.Policy.(controller.Prober); ok && p.WantsProbe() {
			wantsProbe = true
			c.mu.Lock()
			m.ProbeOK, m.ProbeValid = c.probeOK, c.probeValid
			c.probeValid = false
			c.mu.Unlock()
		}
		next := c.cfg.Policy.Next(m)
		if next < 0 {
			next = 0
		}
		if next > c.cfg.FS {
			next = c.cfg.FS
		}
		c.mu.Lock()
		c.po = next
		c.mu.Unlock()

		c.instr.OffloadRate.Set(next)
		c.instr.TimeoutRate.Set(m.T)
		c.instr.LocalRate.Set(m.Pl)

		if wantsProbe {
			c.sendProbe()
		}
	}
}

// sendProbe transmits one heartbeat request outside the throughput
// accounting (see controller.Prober). While disconnected the probe
// fails immediately, which is exactly the signal a probing policy
// wants.
func (c *Client) sendProbe() {
	c.mu.Lock()
	c.probeSeq++
	id := probeIDBase + c.probeSeq
	c.probeSentAt = time.Now()
	c.probePending = true
	c.mu.Unlock()

	if err := c.writeRequest(id, true); err != nil {
		c.mu.Lock()
		if c.probePending && id == probeIDBase+c.probeSeq {
			c.probePending = false
			c.probeValid = true
			c.probeOK = false
		}
		c.mu.Unlock()
	}
}

// SetOffloadRate overrides the controller's rate (useful before the
// first tick or for open-loop experiments).
func (c *Client) SetOffloadRate(po float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if po < 0 {
		po = 0
	}
	if po > c.cfg.FS {
		po = c.cfg.FS
	}
	c.po = po
}

// Po returns the current offload rate.
func (c *Client) Po() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.po
}
