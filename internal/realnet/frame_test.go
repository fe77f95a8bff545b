package realnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/models"
	"repro/internal/netproto"
)

// Tests for the frame record's ownership rules and the writer's
// coalescing.

// patternByte is what byte off of frame id's payload must hold.
func patternByte(id uint64, off int) byte { return byte(id*131 + uint64(off)*7 + id>>32) }

func patternPayload(buf []byte, id uint64, n int) []byte {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = append(buf, patternByte(id, i))
	}
	return buf
}

// TestFramePayloadIntactUntilReply plays a connection's read loop and
// its writer around the real batcher: patterned payloads of every pool
// class are decoded from memory as fast as the batcher takes them (so it
// sheds most), and where writeLoop would encode the answer the test
// checks that the frame still carries its own pattern — a buffer
// released early would have been refilled by another reader. One
// session is aborted from the start, so its frames go down the drop
// path whenever that wins reply's select. Every frame comes back exactly
// once, by one path or the other, and every pooled buffer is back at the
// end. Meant for -race.
func TestFramePayloadIntactUntilReply(t *testing.T) {
	const (
		sessions   = 3
		perSession = 200
	)
	inUse := netproto.BufsInUse()
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", MaxBatch: 4, TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sizes := []int{0, 1, 64, 500, 513, 3000, 29000, 70000}
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < sessions; c++ {
		var stream, payload []byte
		for i := 0; i < perSession; i++ {
			id := uint64(c)<<32 | uint64(i)
			payload = patternPayload(payload, id, sizes[(i+c)%len(sizes)])
			req := netproto.Request{Stream: uint32(c), FrameID: id, Model: models.All()[i%2], Payload: payload}
			stream, _ = netproto.AppendRequest(stream, &req)
		}
		ss := newSession(srv, nil) // no writer is started, so no conn is needed
		ss.dec.Reset(bytes.NewReader(stream))
		if c == 0 {
			ss.abort()
		}
		wg.Add(2)
		go func() { // handleConn's loop
			defer wg.Done()
			for {
				f, err := ss.readFrame()
				if err != nil {
					if err != io.EOF {
						t.Errorf("decoding the stream: %v", err)
					}
					break
				}
				srv.pending.Add(1)
				ss.inflight.Add(1)
				srv.reqCh <- f
			}
			ss.dec.Reset(nil)
			ss.drain(10 * time.Second)
		}()
		go func() { // in writeLoop's place
			defer wg.Done()
			for f := range ss.respCh {
				if f.free || f.ss != ss {
					t.Errorf("frame %#x reached the writer released or with another session's owner", f.req.FrameID)
				}
				id := f.req.FrameID
				if want := sizes[(id&0xffffffff+id>>32)%uint64(len(sizes))]; len(f.req.Payload) != want {
					t.Errorf("frame %#x: %d payload bytes, sent %d", id, len(f.req.Payload), want)
				}
				for i, b := range f.req.Payload {
					if b != patternByte(id, i) {
						t.Errorf("frame %#x: payload byte %d is not its own", id, i)
						break
					}
				}
				f.release()
				answered.Add(1)
			}
		}()
	}
	wg.Wait()

	st := srv.Stats()
	if got := uint64(answered.Load()) + st.Dropped; got != sessions*perSession {
		t.Errorf("%d frames reached the writer and %d were dropped, of %d read", answered.Load(), st.Dropped, sessions*perSession)
	}
	if st.Rejected == 0 || st.Completed == 0 || st.Dropped == 0 {
		t.Errorf("the test meant to serve, shed and drop: %+v", st)
	}
	srv.Close()
	if n := netproto.BufsInUse() - inUse; n != 0 {
		t.Errorf("%d pooled buffers still out after Close", n)
	}
}

// TestFrameOwnershipUnderShedding pushes frames of mixed sizes (every
// pool class) through a server that is shedding, over several
// connections at once plus one that hangs up mid-flight. Every FrameID
// is answered exactly once with the right label, and after Close every
// pooled buffer is back; a record or buffer handed on while still owned
// trips the race detector or the double-release panic. Meant for -race.
func TestFrameOwnershipUnderShedding(t *testing.T) {
	const (
		conns    = 4
		perConn  = 400
		window   = 24 // > MaxBatch, so queues overflow and shed
		maxBatch = 4
	)
	inUse := netproto.BufsInUse()
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", MaxBatch: maxBatch, TimeScale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sizes := []int{0, 1, 64, 500, 513, 3000, 29000, 40000, 70000}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		tokens := make(chan struct{}, window)
		wg.Add(2)
		go func(c int) { // sender
			defer wg.Done()
			var payload, buf []byte
			for i := 0; i < perConn; i++ {
				tokens <- struct{}{}
				id := uint64(c)<<32 | uint64(i)
				payload = patternPayload(payload, id, sizes[(i+c)%len(sizes)])
				req := netproto.Request{Stream: uint32(c), FrameID: id, Model: models.All()[i%2], Payload: payload}
				buf, _ = netproto.AppendRequest(buf[:0], &req)
				if _, err := conn.Write(buf); err != nil {
					t.Errorf("conn %d write: %v", c, err)
					return
				}
			}
		}(c)
		go func(c int) { // receiver
			defer wg.Done()
			answered := make([]bool, perConn)
			dec := netproto.NewDecoder(conn)
			defer dec.Reset(nil)
			var res netproto.Response
			for i := 0; i < perConn; i++ {
				if err := dec.ReadResponse(&res); err != nil {
					t.Errorf("conn %d read: %v", c, err)
					return
				}
				seq := int(res.FrameID & 0xffffffff)
				switch {
				case res.FrameID>>32 != uint64(c) || seq >= perConn:
					t.Errorf("conn %d got an answer to frame %#x, never sent here", c, res.FrameID)
				case answered[seq]:
					t.Errorf("conn %d: frame %d answered twice", c, seq)
				case !res.Rejected && (res.Label != int32(res.FrameID%1000) || res.BatchSize == 0 || res.BatchSize > maxBatch):
					t.Errorf("conn %d: frame %d: label %d batch %d", c, seq, res.Label, res.BatchSize)
				}
				answered[seq] = true
				<-tokens
			}
		}(c)
	}

	// The rude connection: a burst, then gone without reading a byte.
	rude, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const rudeFrames = 60
	var payload, buf []byte
	for i := 0; i < rudeFrames; i++ {
		id := uint64(99)<<32 | uint64(i)
		payload = patternPayload(payload, id, 2000)
		buf, _ = netproto.AppendRequest(buf, &netproto.Request{Stream: 99, FrameID: id, Payload: payload})
	}
	if _, err := rude.Write(buf); err != nil {
		t.Fatal(err)
	}
	rude.Close()

	wg.Wait()
	srv.Close()

	st := srv.Stats()
	polite := uint64(conns * perConn)
	if st.Submitted < polite || st.Submitted > polite+rudeFrames || st.Completed+st.Rejected != st.Submitted {
		t.Errorf("accounting: %+v, want %d..%d submitted, all completed or rejected", st, polite, polite+rudeFrames)
	}
	if st.Rejected == 0 || st.Completed == 0 {
		t.Errorf("the test meant to both serve and shed: %+v", st)
	}
	if n := netproto.BufsInUse() - inUse; n != 0 {
		t.Errorf("%d pooled buffers still out after Close", n)
	}
}

func TestFrameDoubleReleasePanics(t *testing.T) {
	f := newFrame(nil)
	f.release()
	defer func() {
		if recover() == nil {
			t.Fatal("second release did not panic")
		}
	}()
	f.release()
}

// countConn is a writeDeadlineConn that records what the writer did.
type countConn struct {
	mu        sync.Mutex
	writes    [][]byte
	deadlines int
	closed    bool
}

func (c *countConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	return len(b), nil
}

func (c *countConn) SetWriteDeadline(time.Time) error {
	c.mu.Lock()
	c.deadlines++
	c.mu.Unlock()
	return nil
}

func (c *countConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// queueReplies puts n answered frames on a fresh session's respCh
// before its writer runs, the way a completed batch does.
func queueReplies(srv *Server, conn writeDeadlineConn, n int) *session {
	ss := newSession(srv, conn)
	for i := 0; i < n; i++ {
		f := newFrame(ss)
		f.req.FrameID = uint64(1000 + i)
		f.req.TraceID = uint64(i % 2) // both encodings
		srv.pending.Add(1)
		ss.inflight.Add(1)
		ss.reply(f, false, uint16(n))
	}
	return ss
}

// TestWriteLoopCoalescesQueuedReplies: a batch of 15 answers waiting
// for the writer leaves in one Write, under one deadline, in FIFO order;
// and once drain returns the socket is closed.
func TestWriteLoopCoalescesQueuedReplies(t *testing.T) {
	srv := startServer(t)
	inUse := netproto.BufsInUse()
	conn := &countConn{}
	ss := queueReplies(srv, conn, 15)
	ss.startWriter()
	ss.drain(time.Second)

	conn.mu.Lock()
	defer conn.mu.Unlock()
	if len(conn.writes) != 1 || conn.deadlines != 1 {
		t.Fatalf("%d writes under %d deadlines for 15 queued replies, want 1 and 1", len(conn.writes), conn.deadlines)
	}
	if !conn.closed {
		t.Fatal("drain returned before the writer closed the socket")
	}
	rd := bytes.NewReader(conn.writes[0])
	for i := 0; i < 15; i++ {
		res, err := netproto.ReadResponse(rd)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		want := netproto.Response{FrameID: uint64(1000 + i), Label: int32((1000 + i) % 1000), BatchSize: 15, TraceID: uint64(i % 2)}
		if *res != want {
			t.Fatalf("reply %d = %+v, want %+v", i, *res, want)
		}
	}
	if rd.Len() != 0 {
		t.Fatalf("%d stray bytes after the 15 replies", rd.Len())
	}
	if st := srv.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d replies on a healthy connection", st.Dropped)
	}
	if n := netproto.BufsInUse() - inUse; n != 0 {
		t.Fatalf("%d pooled buffers still out", n)
	}
}

// TestWriteLoopFailedCoalescedWriteDropsAll: when the one write for 15
// queued answers times out, all 15 are counted dropped and the socket
// is closed.
func TestWriteLoopFailedCoalescedWriteDropsAll(t *testing.T) {
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: fastScale, WriteTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inUse := netproto.BufsInUse()
	conn := &stallConn{}
	ss := queueReplies(srv, conn, 15)
	ss.startWriter()
	ss.drain(time.Second)

	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.deadlines != 1 {
		t.Fatalf("%d deadlines set, want 1 for the one coalesced write", conn.deadlines)
	}
	if !conn.closed {
		t.Fatal("stalled connection was not closed when drain returned")
	}
	if got := srv.Stats().Dropped; got != 15 {
		t.Fatalf("dropped = %d, want all 15 replies of the failed write", got)
	}
	if n := netproto.BufsInUse() - inUse; n != 0 {
		t.Fatalf("%d pooled buffers still out", n)
	}
}

// TestServerFramePathZeroAlloc: in steady state a 64-byte frame's trip
// through the server — read, queue, batch, reply, write — allocates
// nothing. The measured loop is one raw connection doing round trips;
// its own side (a reused encode buffer and a streaming decoder) is
// allocation-free too, so everything AllocsPerRun sees is the server's.
func TestServerFramePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards Puts at random under the race detector")
	}
	srv, err := NewServer(ServerConfig{Addr: "127.0.0.1:0", TimeScale: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	dec := netproto.NewDecoder(conn)
	defer dec.Reset(nil)
	req := netproto.Request{Stream: 3, Payload: make([]byte, 64)}
	var res netproto.Response
	var buf []byte
	roundTrip := func() {
		req.FrameID++
		buf, _ = netproto.AppendRequest(buf[:0], &req)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		if err := dec.ReadResponse(&res); err != nil {
			t.Fatal(err)
		}
		if res.FrameID != req.FrameID || res.Rejected {
			t.Fatalf("answer %+v to frame %d", res, req.FrameID)
		}
	}
	for i := 0; i < 100; i++ { // pools, queue and batch storage reach their steady size
		roundTrip()
	}
	if n := testing.AllocsPerRun(500, roundTrip); n != 0 {
		t.Fatalf("%v allocs per frame through the server, want 0", n)
	}
}

// respConn is a net.Conn whose Read serves a prepared stream and then
// reports that the connection was closed.
type respConn struct {
	net.Conn // nil: only Read and Close are called
	rd       *bytes.Reader
}

func (c *respConn) Read(p []byte) (int, error) {
	if c.rd.Len() == 0 {
		return 0, net.ErrClosed
	}
	return c.rd.Read(p)
}

func (c *respConn) Close() error { return nil }

// TestClientResponseReadZeroAlloc: the client's receive loop decodes
// and resolves responses without allocating per response.
func TestClientResponseReadZeroAlloc(t *testing.T) {
	const n = 4000
	c := benchClient(t)
	var stream []byte
	for i := 0; i < n; i++ {
		stream = netproto.AppendResponse(stream, &netproto.Response{FrameID: uint64(i), Label: int32(i % 1000), BatchSize: 3})
		c.outstanding[uint64(i)] = time.Now()
	}
	conn := &respConn{rd: bytes.NewReader(stream)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c.readConn(conn)
	runtime.ReadMemStats(&m1)
	if st := c.Stats(); st.OffloadOK != n {
		t.Fatalf("resolved %d of %d responses: %+v", st.OffloadOK, n, st)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/100 {
		t.Fatalf("%d allocations while reading %d responses (%s per response), want none per response",
			allocs, n, fmt.Sprintf("%.3f", float64(allocs)/n))
	}
}
