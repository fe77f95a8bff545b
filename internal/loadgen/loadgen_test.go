package loadgen

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/realnet"
	"repro/internal/telemetry"
)

// fastScale compresses simulated compute 10× (matches the realnet
// package's test convention).
const fastScale = 0.1

func startServer(t *testing.T) *realnet.Server {
	t.Helper()
	// MaxBatch 64 gives the batcher room for a fleet's worth of
	// near-simultaneous arrivals; the paper's 15 is tuned for a
	// handful of 60 fps cameras, not 40+ multiplexed devices.
	srv, err := realnet.NewServer(realnet.ServerConfig{
		Addr: "127.0.0.1:0", TimeScale: fastScale, MaxBatch: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestPackFrameIDRoundTrip(t *testing.T) {
	cases := []struct {
		dev int
		seq uint32
	}{
		{0, 0}, {1, 1}, {999, 42}, {maxDevices - 1, ^uint32(0)},
	}
	for _, c := range cases {
		dev, seq := UnpackFrameID(PackFrameID(c.dev, c.seq))
		if dev != c.dev || seq != c.seq {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.dev, c.seq, dev, seq)
		}
	}
}

// TestMuxDemuxRouting interleaves frames from many devices over a
// 2-connection pool and checks every response lands at its own
// device with its own sequence number.
func TestMuxDemuxRouting(t *testing.T) {
	srv := startServer(t)
	const devices, frames = 16, 8

	type key struct {
		dev int
		seq uint32
	}
	var mu sync.Mutex
	got := make(map[key]bool)
	done := make(chan struct{})
	remaining := devices * frames

	m, err := NewMux(MuxConfig{
		Addr:  srv.Addr().String(),
		Conns: 2,
		Handler: func(dev int, res *netproto.Response) {
			rdev, seq := UnpackFrameID(res.FrameID)
			mu.Lock()
			defer mu.Unlock()
			if rdev != dev {
				t.Errorf("handler dev %d != frame dev %d", dev, rdev)
			}
			k := key{dev, seq}
			if got[k] {
				t.Errorf("duplicate response for %+v", k)
			}
			got[k] = true
			remaining--
			if remaining == 0 {
				close(done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	deadline := time.Now().Add(5 * time.Second)
	for m.Up() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Up() < 2 {
		t.Fatalf("pool never came up: %d/2", m.Up())
	}

	payload := make([]byte, 256)
	for seq := uint32(1); seq <= frames; seq++ {
		for dev := 0; dev < devices; dev++ {
			req := &netproto.Request{
				Stream:           uint32(dev),
				FrameID:          PackFrameID(dev, seq),
				CapturedUnixNano: time.Now().UnixNano(),
				Payload:          payload,
			}
			if err := m.Send(dev, req); err != nil {
				t.Fatalf("send dev %d seq %d: %v", dev, seq, err)
			}
		}
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		t.Fatalf("only %d/%d responses routed", len(got), devices*frames)
	}
	mu.Lock()
	defer mu.Unlock()
	for dev := 0; dev < devices; dev++ {
		for seq := uint32(1); seq <= frames; seq++ {
			if !got[key{dev, seq}] {
				t.Fatalf("missing response dev %d seq %d", dev, seq)
			}
		}
	}
}

// TestFleetConverges soaks a small fleet against a healthy loopback
// server: most devices must reach the settled verdict — either the
// equilibrium band or full convergence with T ≈ 0.
func TestFleetConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second soak")
	}
	srv := startServer(t)
	reg := telemetry.NewRegistry()
	instr := NewInstruments(reg)
	e, err := New(Config{
		Addr:         srv.Addr().String(),
		Devices:      40,
		Conns:        4,
		FS:           30,
		Deadline:     80 * time.Millisecond,
		Tick:         250 * time.Millisecond,
		Step:         10 * time.Millisecond,
		TimeScale:    fastScale,
		PayloadBytes: 512,
		InitialPo:    15,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = instr
	defer e.Close()

	deadline := time.Now().Add(12 * time.Second)
	var snap Snapshot
	for time.Now().Before(deadline) {
		time.Sleep(250 * time.Millisecond)
		snap = e.Snapshot()
		if snap.SettledRatio >= 0.9 && snap.OffloadOK > 0 {
			break
		}
	}
	if snap.OffloadOK == 0 {
		t.Fatalf("no successful offloads: %+v", snap)
	}
	if snap.SettledRatio < 0.75 {
		t.Fatalf("settled ratio %.2f < 0.75 after soak: %+v", snap.SettledRatio, snap)
	}
	if snap.Captured == 0 || snap.OffloadAttempts == 0 {
		t.Fatalf("fleet idle: %+v", snap)
	}
	// The accounting must balance: resolved ≤ attempted.
	if snap.OffloadOK+snap.OffloadTimedOut+snap.OffloadRejected > snap.OffloadAttempts {
		t.Fatalf("resolved more offloads than attempted: %+v", snap)
	}
}

// TestEngineShutdownNoGoroutineLeak starts and stops a sizeable fleet
// and checks every goroutine unwinds.
func TestEngineShutdownNoGoroutineLeak(t *testing.T) {
	srv := startServer(t)
	before := runtime.NumGoroutine()
	e, err := New(Config{
		Addr:         srv.Addr().String(),
		Devices:      200,
		Conns:        4,
		FS:           30,
		TimeScale:    fastScale,
		PayloadBytes: 512,
		InitialPo:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d before, %d after shutdown\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

// TestEngineBadConfig pins the validation surface.
func TestEngineBadConfig(t *testing.T) {
	cases := []Config{
		{Addr: "127.0.0.1:1"},                              // Devices missing
		{Addr: "127.0.0.1:1", Devices: -1},                 // negative
		{Addr: "", Devices: 1},                             // no addr
		{Addr: "127.0.0.1:1", Devices: 1, FS: -3},          // bad FS
		{Addr: "127.0.0.1:1", Devices: 1, TimeScale: -0.5}, // bad scale
	}
	for i, cfg := range cases {
		if e, err := New(cfg); err == nil {
			e.Close()
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

// discardServer accepts TCP connections and discards everything, so
// the benchmark measures the mux send path, not a server.
func discardServer(tb testing.TB) net.Addr {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, 64<<10)
				for {
					if _, err := conn.Read(buf); err != nil {
						conn.Close()
						return
					}
				}
			}()
		}
	}()
	return ln.Addr()
}

// TestSendZeroAlloc pins the 0-allocation guarantee of the per-frame
// send path, including the Request literal the engine builds per
// frame (it must stay on the stack).
func TestSendZeroAlloc(t *testing.T) {
	addr := discardServer(t)
	m, err := NewMux(MuxConfig{Addr: addr.String(), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.Up() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Up() < 1 {
		t.Fatal("pool never came up")
	}

	payload := make([]byte, 1024)
	var seq uint32
	// Warm up so encBuf reaches steady-state capacity.
	for i := 0; i < 16; i++ {
		seq++
		if err := m.Send(3, &netproto.Request{
			Stream: 3, FrameID: PackFrameID(3, seq), Payload: payload,
		}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		seq++
		req := &netproto.Request{
			Stream:           3,
			FrameID:          PackFrameID(3, seq),
			CapturedUnixNano: 12345,
			Payload:          payload,
		}
		if err := m.Send(3, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("send path allocates %.1f objects/frame, want 0", allocs)
	}
}

func BenchmarkMuxSend(b *testing.B) {
	addr := discardServer(b)
	m, err := NewMux(MuxConfig{Addr: addr.String(), Conns: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	deadline := time.Now().Add(5 * time.Second)
	for m.Up() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Up() < 1 {
		b.Fatal("pool never came up")
	}
	payload := make([]byte, 29<<10)
	var seq uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		req := &netproto.Request{
			Stream:           1,
			FrameID:          PackFrameID(1, seq),
			CapturedUnixNano: int64(i),
			Payload:          payload,
		}
		if err := m.Send(1, req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMuxResponseReadZeroAlloc: a pooled connection's read loop decodes
// and dispatches responses without allocating per response (the handler
// gets a pointer to the one Response the loop reuses).
func TestMuxResponseReadZeroAlloc(t *testing.T) {
	const n = 4000
	var stream []byte
	for i := 0; i < n; i++ {
		stream = netproto.AppendResponse(stream, &netproto.Response{FrameID: PackFrameID(i%7, uint32(i)), Rejected: i%3 == 0})
	}
	var got, wrongDev int
	m := &Mux{stopCh: make(chan struct{})}
	m.cfg.Handler = func(dev int, res *netproto.Response) {
		if d, seq := UnpackFrameID(res.FrameID); d != dev || int(seq) != got {
			wrongDev++
		}
		got++
	}
	mc := &muxConn{m: m}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mc.read(bytes.NewReader(stream))
	runtime.ReadMemStats(&m1)
	if got != n || wrongDev != 0 {
		t.Fatalf("dispatched %d of %d responses, %d to the wrong device", got, n, wrongDev)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/100 {
		t.Fatalf("%d allocations while reading %d responses, want none per response", allocs, n)
	}
}
