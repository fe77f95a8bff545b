package realnet

import (
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/netproto"
	"repro/internal/telemetry"
)

// benchClient builds a minimal Client wired to an in-memory pipe so
// the send path can be benchmarked without a TCP stack or the capture
// loop's timing noise.
func benchClient(b testing.TB) *Client {
	b.Helper()
	clientSide, serverSide := net.Pipe()
	go io.Copy(io.Discard, serverSide)
	b.Cleanup(func() {
		clientSide.Close()
		serverSide.Close()
	})
	c := &Client{
		cfg: ClientConfig{
			Stream:       1,
			FS:           30,
			Deadline:     time.Second,
			PayloadBytes: 29 << 10,
			WriteTimeout: -1, // net.Pipe deadlines are irrelevant here
		},
		conn:        clientSide,
		payload:     make([]byte, 29<<10),
		outstanding: make(map[uint64]time.Time),
		stopCh:      make(chan struct{}),
		instr:       &ClientInstruments{},
	}
	return c
}

// BenchmarkSendPathPerFrameAlloc reproduces the seed-era send path:
// a fresh payload slice plus a fresh encode buffer for every frame.
func BenchmarkSendPathPerFrameAlloc(b *testing.B) {
	c := benchClient(b)
	b.ReportAllocs()
	b.SetBytes(int64(c.cfg.PayloadBytes))
	for i := 0; i < b.N; i++ {
		req := &netproto.Request{
			Stream:           c.cfg.Stream,
			FrameID:          uint64(i),
			Model:            c.cfg.Model,
			CapturedUnixNano: time.Now().UnixNano(),
			Payload:          make([]byte, c.cfg.PayloadBytes),
		}
		if err := netproto.WriteRequest(c.conn, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSendPathReusedBuffers is the current writeRequest: payload
// and encode buffer live for the client's lifetime under writeMu.
func BenchmarkSendPathReusedBuffers(b *testing.B) {
	c := benchClient(b)
	b.ReportAllocs()
	b.SetBytes(int64(c.cfg.PayloadBytes))
	for i := 0; i < b.N; i++ {
		if err := c.writeRequest(uint64(i), false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFramePath drives the full per-frame cycle — capture accounting,
// offload decision, wire write, outcome resolution with its latency
// observation — so the 0 allocs/op guarantee covers everything a frame
// touches, not just the encoder.
func benchFramePath(b *testing.B, c *Client) {
	b.Helper()
	c.po = c.cfg.FS // every frame offloads
	// Warm up: first map inserts and histogram children must not count
	// against the steady state.
	for i := uint64(0); i < 64; i++ {
		c.handleFrame(i)
		c.completeOffload(i, false)
	}
	b.ReportAllocs()
	b.SetBytes(int64(c.cfg.PayloadBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i) + 64
		c.handleFrame(id)
		c.completeOffload(id, false)
	}
}

// BenchmarkFramePath is the uninstrumented frame path (zero-value
// instruments: every metric is a nil no-op).
func BenchmarkFramePath(b *testing.B) {
	benchFramePath(b, benchClient(b))
}

// BenchmarkFramePathInstrumented proves the telemetry layer keeps the
// frame path at 0 allocs/op with live counters, gauges and the
// per-outcome latency histogram attached.
func BenchmarkFramePathInstrumented(b *testing.B) {
	c := benchClient(b)
	c.instr = NewClientInstruments(telemetry.NewRegistry())
	benchFramePath(b, c)
	if got := c.instr.Captured.Value(); got != uint64(b.N)+64 {
		b.Fatalf("captured counter = %d, want %d", got, b.N+64)
	}
	if got := c.instr.Latency.With("ok").Count(); got != uint64(b.N)+64 {
		b.Fatalf("ok-latency observations = %d, want %d", got, b.N+64)
	}
}
