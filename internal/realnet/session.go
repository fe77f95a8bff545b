package realnet

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/netproto"
)

// frameRec is the one record a request lives in on the server, from the
// socket read to the reply write. It travels by pointer and has one
// owner at a time:
//
//	handleConn  newFrame, decodes the request (payload in pooled storage)
//	  → reqCh   → batchLoop  queues it, runs or sheds it
//	  → session.reply        stamps the verdict
//	  → respCh  → writeLoop  encodes the response, release
//
// A frame that cannot be answered (session aborted, server shutting
// down, write failed) goes through session.drop instead, which counts it
// and releases it. release is called exactly once per frame; a second
// call panics.
type frameRec struct {
	req netproto.Request
	ss  *session // where the answer goes

	// The verdict, set by session.reply.
	rejected  bool
	batchSize uint16

	free bool // back in framePool
}

var framePool = sync.Pool{New: func() any { return new(frameRec) }}

func newFrame(ss *session) *frameRec {
	f := framePool.Get().(*frameRec)
	f.free = false
	f.ss = ss
	return f
}

// release returns the payload storage and the record to their pools.
func (f *frameRec) release() {
	if f.free {
		panic("realnet: frame released twice")
	}
	f.free = true
	f.req.Release()
	f.ss = nil
	framePool.Put(f)
}

// appendResponse encodes the frame's verdict onto buf.
func (f *frameRec) appendResponse(buf []byte) []byte {
	res := netproto.Response{
		FrameID:   f.req.FrameID,
		Rejected:  f.rejected,
		BatchSize: f.batchSize,
		TraceID:   f.req.TraceID,
	}
	if !f.rejected {
		res.Label = int32(f.req.FrameID % 1000)
	}
	return netproto.AppendResponse(buf, &res)
}

// session is the server side of one device connection. It decouples
// the lifetime of the response writer from the lifetime of the read
// loop: a device that disconnects with frames still queued or
// executing must not crash the server, so the writer (and the response
// channel feeding it) stays alive until every in-flight reply for this
// session has either been written, failed, or been deliberately
// dropped — never sent on a closed channel.
//
// Lifecycle:
//
//  1. handleConn registers each forwarded frame with inflight.Add(1);
//     the batcher eventually calls reply() exactly once per frame,
//     which does inflight.Done().
//  2. When the read loop ends (disconnect or server shutdown), drain()
//     waits up to the drain timeout for inflight to reach zero, then
//     aborts stragglers (their replies are counted as dropped), closes
//     respCh and waits for the writer to exit. When drain returns the
//     socket is closed.
//  3. writeLoop consumes respCh until it is closed, encoding everything
//     already queued into one write with one deadline, so one stalled
//     device cannot wedge its writer goroutine; a write failure aborts
//     the session so pending replies stop queueing up behind a dead
//     socket.
//
// reply() only ever sends to respCh while inflight is nonzero, and
// respCh is only closed after inflight has drained, so the
// send-on-closed-channel panic of the pre-session design is
// structurally impossible.
//
// An idle session holds no pooled storage: the decoder's read-ahead
// and the writer's encode buffer are taken from the pool for one
// wake-up and given back before blocking again.
type session struct {
	srv  *Server
	conn writeDeadlineConn

	// respCh's depth is how many answers may wait for the writer
	// before the batcher blocks on this session.
	respCh chan *frameRec

	// aborted is closed when replies should be discarded instead of
	// queued: after a write failure, a drain timeout, or server
	// shutdown.
	aborted   chan struct{}
	abortOnce sync.Once

	// inflight counts frames forwarded to the batcher that have not
	// come back through reply yet.
	inflight sync.WaitGroup

	// writer is done when writeLoop has exited (and closed conn).
	writer sync.WaitGroup

	dec netproto.Decoder // owned by handleConn
}

// writeDeadlineConn is the slice of net.Conn the writer needs; tests
// can substitute stalled fakes.
type writeDeadlineConn interface {
	Write([]byte) (int, error)
	SetWriteDeadline(time.Time) error
	Close() error
}

func newSession(srv *Server, conn writeDeadlineConn) *session {
	return &session{
		srv:     srv,
		conn:    conn,
		respCh:  make(chan *frameRec, 256),
		aborted: make(chan struct{}),
	}
}

// startWriter starts writeLoop; drain waits for it.
func (ss *session) startWriter() {
	ss.writer.Add(1)
	go ss.writeLoop()
}

// readFrame decodes the connection's next request into a frame record
// that the caller owns. The record is taken from the pool only once
// bytes have arrived, so an idle connection holds none.
func (ss *session) readFrame() (*frameRec, error) {
	if err := ss.dec.Wait(); err != nil {
		return nil, err
	}
	f := newFrame(ss)
	if err := ss.dec.ReadRequest(&f.req); err != nil {
		f.release()
		return nil, err
	}
	return f, nil
}

// abort marks the session dead: pending and future replies are dropped
// instead of queued.
func (ss *session) abort() {
	ss.abortOnce.Do(func() { close(ss.aborted) })
}

// drop accounts one frame whose answer nobody will receive, and
// releases it.
func (ss *session) drop(f *frameRec) {
	ss.srv.stats.dropped.Add(1)
	ss.srv.instr.Dropped.Inc()
	f.release()
}

// reply stamps the batcher's verdict on f and hands it to the writer,
// or drops it if the session is dead or the server is shutting down.
// Safe to call from the batcher at any time relative to the device
// disconnecting. The caller gives f up.
func (ss *session) reply(f *frameRec, rejected bool, batchSize uint16) {
	f.rejected, f.batchSize = rejected, batchSize
	select {
	case ss.respCh <- f:
	case <-ss.aborted:
		ss.drop(f)
	case <-ss.srv.doneCh:
		ss.drop(f)
	}
	ss.srv.pending.Add(-1)
	ss.inflight.Done()
}

// writeLoop serializes responses onto the connection until respCh is
// closed. Every wake-up encodes all the answers already queued into one
// pooled buffer and issues one deadline and one Write for them. On a
// write error the session aborts: the answers in the failed write and
// every later one are counted as dropped. This is where frames that
// reach the writer are released.
func (ss *session) writeLoop() {
	defer ss.writer.Done()
	defer ss.conn.Close()
	failed := false
	for f := range ss.respCh {
		// Only this goroutine receives, so the n-1 further receives
		// below cannot block.
		n := 1 + len(ss.respCh)
		out := netproto.GetBuf(n * netproto.MaxResponseLen)
		for i := 1; ; i++ {
			out.B = f.appendResponse(out.B)
			f.release()
			if i == n {
				break
			}
			f = <-ss.respCh
		}
		if !failed {
			failed = !ss.write(out.B)
		}
		out.Release()
		if failed {
			ss.srv.stats.dropped.Add(uint64(n))
			ss.srv.instr.Dropped.Add(uint64(n))
			ss.srv.instr.WriteDrops.Add(uint64(n))
		}
	}
}

// write sends one buffer of encoded answers under the write deadline,
// so a device that stops reading cannot block the writer forever. On
// failure it aborts the session and reports false.
func (ss *session) write(b []byte) bool {
	if wt := ss.srv.cfg.WriteTimeout; wt > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := ss.conn.Write(b)
	if err == nil {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		ss.srv.instr.WriteTimeouts.Inc()
	}
	ss.srv.logf("realnet: write failed, aborting session: %v", err)
	ss.abort()
	// The session is dead either way; closing the socket now unblocks
	// the read loop so the drain can start.
	ss.conn.Close()
	return false
}

// drain completes the session after the read loop ends: it waits up to
// timeout for every in-flight reply to be delivered to the writer,
// aborts whatever remains, and then — once no sender can touch respCh
// again — closes it and waits for the writer to flush, close the socket
// and exit.
func (ss *session) drain(timeout time.Duration) {
	settled := make(chan struct{})
	go func() {
		ss.inflight.Wait()
		close(settled)
	}()
	if timeout > 0 {
		t := time.NewTimer(timeout)
		select {
		case <-settled:
		case <-t.C:
			ss.abort()
		case <-ss.srv.doneCh:
			ss.abort()
		}
		t.Stop()
	}
	ss.abort() // timeout <= 0: drop immediately rather than wait
	<-settled
	close(ss.respCh)
	ss.writer.Wait()
}
