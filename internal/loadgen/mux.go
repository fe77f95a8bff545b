// Package loadgen multiplexes a fleet of virtual FrameFeedback
// devices — each a real controller instance with its own capture,
// local-inference, and deadline accounting — over a small pool of
// shared TCP connections to a realnet server. One process drives
// hundreds to thousands of devices, which is what a soak rig needs:
// the per-device goroutine-per-connection model of internal/realnet
// stops scaling long before the server does.
//
// The wire format is the ordinary netproto protocol; the server needs
// no changes. Because netproto.Response does not echo the stream ID,
// responses are routed back to their device through the frame ID: the
// device index rides in the upper 32 bits, the per-device sequence
// number in the lower 32 (see PackFrameID).
package loadgen

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netproto"
	"repro/internal/rng"
)

// Connection-pool defaults.
const (
	DefaultConns        = 4
	DefaultDialTimeout  = 2 * time.Second
	DefaultReconnectMin = 100 * time.Millisecond
	DefaultReconnectMax = 5 * time.Second
)

// ErrDisconnected reports a send attempted while the device's pooled
// connection is down; the caller accounts the frame as an immediate
// timeout, exactly like realnet.Client during an outage.
var ErrDisconnected = errors.New("loadgen: connection down")

// PackFrameID encodes a device index and per-device sequence number
// into one wire frame ID: the server echoes frame IDs verbatim, so
// the mux can demultiplex responses without protocol changes.
func PackFrameID(dev int, seq uint32) uint64 {
	return uint64(uint32(dev))<<32 | uint64(seq)
}

// UnpackFrameID recovers the device index and sequence number.
func UnpackFrameID(id uint64) (dev int, seq uint32) {
	return int(id >> 32), uint32(id)
}

// MuxConfig configures a connection pool.
type MuxConfig struct {
	// Addr is the server address.
	Addr string
	// Conns is the pool size; devices map to connections by
	// dev % Conns. Default DefaultConns.
	Conns int
	// DialTimeout bounds each (re)connect attempt.
	DialTimeout time.Duration
	// WriteTimeout bounds each message write so a blackholed link
	// surfaces as a send error instead of a wedged worker; 0
	// disables it.
	WriteTimeout time.Duration
	// ReconnectMin/ReconnectMax bound the jittered exponential
	// backoff between redial attempts.
	ReconnectMin, ReconnectMax time.Duration
	// Seed drives backoff jitter; default 1.
	Seed uint64
	// Handler receives every demultiplexed response. It is called
	// from the pooled connection's read goroutine and must not
	// block; res is reused for the next response, so it must not be
	// kept either.
	Handler func(dev int, res *netproto.Response)
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
}

// Mux is the shared connection pool.
type Mux struct {
	cfg    MuxConfig
	conns  []*muxConn
	up     atomic.Int64
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// muxConn is one pooled connection: a dial/read/redial goroutine plus
// a write-side mutex guarding the connection handle and the reused
// encode buffer (the 0-alloc send path).
type muxConn struct {
	m   *Mux
	idx int
	rng *rng.Stream // owned by the conn goroutine

	mu     sync.Mutex // guards conn and encBuf
	conn   net.Conn
	encBuf []byte

	dec netproto.Decoder // response reader; owned by the conn goroutine
}

// NewMux starts the pool. Connections are established asynchronously
// (and re-established forever after drops) — a pool pointed at a dead
// server simply reports every Send as ErrDisconnected until the
// server appears, which is the behaviour a fault-injection rig wants.
func NewMux(cfg MuxConfig) (*Mux, error) {
	if cfg.Addr == "" {
		return nil, errors.New("loadgen: mux needs an Addr")
	}
	if cfg.Conns <= 0 {
		cfg.Conns = DefaultConns
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := &Mux{cfg: cfg, stopCh: make(chan struct{})}
	root := rng.New(cfg.Seed)
	m.conns = make([]*muxConn, cfg.Conns)
	for i := range m.conns {
		m.conns[i] = &muxConn{m: m, idx: i, rng: root.Split(uint64(i))}
		m.wg.Add(1)
		go m.conns[i].loop()
	}
	return m, nil
}

// Close drops every pooled connection and waits for the read
// goroutines. Safe to call more than once.
func (m *Mux) Close() error {
	select {
	case <-m.stopCh:
		return nil
	default:
	}
	close(m.stopCh)
	for _, mc := range m.conns {
		mc.mu.Lock()
		if mc.conn != nil {
			mc.conn.Close()
		}
		mc.mu.Unlock()
	}
	m.wg.Wait()
	return nil
}

// Up reports how many pooled connections are currently live.
func (m *Mux) Up() int { return int(m.up.Load()) }

// Send encodes and writes one request on the device's pooled
// connection. The encode buffer is reused under the connection's
// write mutex, so the steady-state path performs zero allocations.
func (m *Mux) Send(dev int, req *netproto.Request) error {
	mc := m.conns[dev%len(m.conns)]
	mc.mu.Lock()
	defer mc.mu.Unlock()
	conn := mc.conn
	if conn == nil {
		return ErrDisconnected
	}
	var err error
	mc.encBuf, err = netproto.AppendRequest(mc.encBuf[:0], req)
	if err != nil {
		return err
	}
	if m.cfg.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(m.cfg.WriteTimeout))
	}
	if _, err := conn.Write(mc.encBuf); err != nil {
		// Retire the connection; the read goroutine notices and
		// redials.
		conn.Close()
		mc.conn = nil
		m.up.Add(-1)
		return err
	}
	return nil
}

func (m *Mux) logf(format string, args ...any) {
	if m.cfg.Logger != nil {
		m.cfg.Logger.Printf(format, args...)
	}
}

// loop is the pooled connection's lifecycle: dial with jittered
// exponential backoff, read and dispatch responses until the
// connection fails, repeat until Close.
func (mc *muxConn) loop() {
	m := mc.m
	defer m.wg.Done()
	backoff := m.cfg.ReconnectMin
	for {
		select {
		case <-m.stopCh:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", m.cfg.Addr, m.cfg.DialTimeout)
		if err != nil {
			sleep := time.Duration(mc.rng.Jitter(float64(backoff), 0.2))
			timer := time.NewTimer(sleep)
			select {
			case <-timer.C:
			case <-m.stopCh:
				timer.Stop()
				return
			}
			backoff *= 2
			if backoff > m.cfg.ReconnectMax {
				backoff = m.cfg.ReconnectMax
			}
			continue
		}
		backoff = m.cfg.ReconnectMin
		mc.mu.Lock()
		mc.conn = conn
		mc.mu.Unlock()
		m.up.Add(1)
		mc.read(conn)
		mc.mu.Lock()
		if mc.conn == conn {
			mc.conn = nil
			m.up.Add(-1)
		}
		mc.mu.Unlock()
		conn.Close()
	}
}

// read consumes responses from one connection until it fails,
// dispatching each to the handler by the device index packed in the
// frame ID.
func (mc *muxConn) read(conn io.Reader) {
	m := mc.m
	mc.dec.Reset(conn)
	defer mc.dec.Reset(nil)
	var res netproto.Response
	for {
		if err := mc.dec.ReadResponse(&res); err != nil {
			select {
			case <-m.stopCh: // expected during shutdown
			default:
				m.logf("loadgen: conn %d read: %v", mc.idx, err)
			}
			return
		}
		if m.cfg.Handler != nil {
			dev, _ := UnpackFrameID(res.FrameID)
			m.cfg.Handler(dev, &res)
		}
	}
}
