package netproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/models"
)

// chunkReader hands out its stream in pieces whose sizes cycle through
// cuts (a zero cut means one byte), whatever size the caller asks for.
type chunkReader struct {
	stream []byte
	cuts   []int
	i      int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.cuts) > 0 {
		n = max(1, c.cuts[c.i%len(c.cuts)])
		c.i++
	}
	n = min(n, len(p), len(c.stream))
	copy(p, c.stream[:n])
	c.stream = c.stream[n:]
	return n, nil
}

// decoded is one message as either reader produced it, flattened so
// two runs can be compared.
type decoded struct {
	stream, frameID, trace uint64
	model                  models.Model
	captured               int64
	probe                  bool
	payload                string
	res                    Response
}

// decodeAll reads messages of one kind until the first error.
func decodeAll(requests bool, readReq func() (*Request, error), readRes func() (*Response, error)) ([]decoded, error) {
	var out []decoded
	for {
		if requests {
			req, err := readReq()
			if err != nil {
				return out, err
			}
			out = append(out, decoded{
				stream: uint64(req.Stream), frameID: req.FrameID, trace: req.TraceID, model: req.Model,
				captured: req.CapturedUnixNano, probe: req.Probe, payload: string(req.Payload),
			})
		} else {
			res, err := readRes()
			if err != nil {
				return out, err
			}
			out = append(out, decoded{res: *res})
		}
	}
}

// checkChunked decodes stream with the one-shot readers and with a
// streaming Decoder fed in the given chunking; both must produce the
// same messages and stop on the same error.
func checkChunked(t *testing.T, requests bool, stream []byte, cuts []int) {
	t.Helper()
	one := bytes.NewReader(stream)
	want, wantErr := decodeAll(requests,
		func() (*Request, error) { return ReadRequest(one) },
		func() (*Response, error) { return ReadResponse(one) })

	before := BufsInUse()
	dec := NewDecoder(&chunkReader{stream: stream, cuts: cuts})
	var req Request
	var res Response
	got, gotErr := decodeAll(requests,
		func() (*Request, error) {
			req.Release()
			err := dec.ReadRequest(&req)
			return &req, err
		},
		func() (*Response, error) { return &res, dec.ReadResponse(&res) })
	req.Release()
	dec.Reset(nil)
	if n := BufsInUse(); n != before {
		t.Fatalf("streaming decode left %d pooled buffers out", n-before)
	}

	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("cuts %v: streaming stopped on %q, one-shot on %q", cuts, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("cuts %v: streaming decoded %d messages, one-shot %d", cuts, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cuts %v: message %d differs:\nstreaming %+v\none-shot  %+v", cuts, i, got[i], want[i])
		}
	}
}

// requestStream is a stream of well-formed requests of assorted sizes:
// empty, sub-head, around the inline and pooled read-ahead sizes, one
// traced.
func requestStream(t testing.TB) []byte {
	var buf []byte
	for i, size := range []int{0, 3, 64, 64, 64, headRoom - 33, headRoom, 1000, readAhead + 7, 29000, 1} {
		req := &Request{
			Stream: uint32(i), FrameID: uint64(i) << 20, Model: models.All()[i%4],
			CapturedUnixNano: int64(i) * 1e9, Probe: i%3 == 0,
			Payload: bytes.Repeat([]byte{byte(i + 1)}, size),
		}
		if i%4 == 1 {
			req.TraceID = 0xABCD0000 + uint64(i)
		}
		var err error
		if buf, err = AppendRequest(buf, req); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

func responseStream() []byte {
	var buf []byte
	for i := 0; i < 40; i++ {
		res := &Response{FrameID: uint64(i) * 977, Rejected: i%5 == 0, Label: int32(i) - 3, BatchSize: uint16(i % 16)}
		if i%7 == 2 {
			res.TraceID = uint64(i) << 33
		}
		buf = AppendResponse(buf, res)
	}
	return buf
}

var chunkings = [][]int{
	{1},                  // byte by byte
	{3, 1, 4, 1, 5, 9},   // every head split somewhere
	{31, 33},             // around a request's fixed head
	{headRoom},           // exactly the inline storage
	{headRoom + 1, 2},    // spills into the pooled storage
	{readAhead - 1, 700}, // around the pooled storage
	{1 << 20},            // everything in one read
}

// TestDecoderMatchesOneShotInAnyChunking: however the bytes are cut
// into reads, the streaming Decoder yields what message-by-message
// ReadRequest / ReadResponse yield — on clean streams, on streams cut
// short at every offset near a message boundary, and on a stream with
// a corrupt message in the middle.
func TestDecoderMatchesOneShotInAnyChunking(t *testing.T) {
	reqs, ress := requestStream(t), responseStream()
	for _, cuts := range chunkings {
		checkChunked(t, true, reqs, cuts)
		checkChunked(t, false, ress, cuts)
		for cut := 0; cut < 200; cut++ {
			checkChunked(t, true, reqs[:cut], cuts)
			checkChunked(t, false, ress[:cut], cuts)
		}
		// A response where a request should be, after three good ones.
		bad := append(append([]byte(nil), reqs[:3*32+3+8]...), ress[:21]...)
		checkChunked(t, true, append(bad, reqs...), cuts)
	}
}

// FuzzDecoderChunking is the differential fuzz target behind the test
// above: arbitrary bytes, arbitrary chunking, both message kinds.
func FuzzDecoderChunking(f *testing.F) {
	reqs, ress := requestStream(f), responseStream()
	f.Add(reqs, []byte{1}, true)
	f.Add(reqs, []byte{200, 3, 90}, true)
	f.Add(ress, []byte{1}, false)
	f.Add(ress, []byte{19, 2, 255}, false)
	f.Add([]byte{0, 0xE4, 0xE1, 0xC0, Version, TypeRequest}, []byte{2}, true)
	f.Fuzz(func(t *testing.T, stream, cutBytes []byte, requests bool) {
		cuts := make([]int, len(cutBytes))
		for i, c := range cutBytes {
			cuts[i] = int(c)
		}
		checkChunked(t, requests, stream, cuts)
	})
}

// corrupt-length messages shared by the unit test and the fuzz seeds.
type namedMsg struct {
	name string
	msg  []byte
}

func corruptRequests(t testing.TB) []namedMsg {
	good, err := AppendRequest(nil, &Request{Model: models.MobileNetV3Small, Payload: []byte("abcdef")})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	payloadLenAt := 4 + 2 + requestFixedLen - 4
	return []namedMsg{
		{"nine trailing bytes", mutate(func(b []byte) []byte {
			b = append(b, make([]byte, 9)...)
			binary.BigEndian.PutUint32(b, uint32(len(b)-4))
			return b
		})},
		{"payload length short of the message length", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[payloadLenAt:], 5)
			return b
		})},
		{"payload length beyond the message length", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[payloadLenAt:], 7)
			return b
		})},
		{"length prefix shorter than the fixed head", mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b, 2+requestFixedLen-1)
			return b
		})},
	}
}

func corruptResponses() []namedMsg {
	good := AppendResponse(nil, &Response{FrameID: 9, Label: 4, BatchSize: 2})
	relen := func(b []byte) []byte {
		binary.BigEndian.PutUint32(b, uint32(len(b)-4))
		return b
	}
	return []namedMsg{
		{"nine trailing bytes", relen(append(append([]byte(nil), good...), make([]byte, 9)...))},
		{"one trailing byte", relen(append(append([]byte(nil), good...), 0))},
		{"length prefix shorter than the fixed body", relen(append([]byte(nil), good[:len(good)-1]...))},
	}
}

// TestCorruptLengthsAreTruncated: both decoders accept exactly the
// fixed layout, or that plus an 8-byte trace ID, and nothing else.
func TestCorruptLengthsAreTruncated(t *testing.T) {
	for _, c := range corruptRequests(t) {
		rd := bytes.NewReader(c.msg)
		if _, err := ReadRequest(rd); err != ErrTruncated {
			t.Errorf("request, %s: err = %v, want ErrTruncated", c.name, err)
		}
		if consumed := len(c.msg) - rd.Len(); consumed > 4+2+requestFixedLen {
			t.Errorf("request, %s: %d bytes consumed, payload bytes among them", c.name, consumed)
		}
	}
	for _, c := range corruptResponses() {
		if _, err := ReadResponse(bytes.NewReader(c.msg)); err != ErrTruncated {
			t.Errorf("response, %s: err = %v, want ErrTruncated", c.name, err)
		}
	}
	// The two lengths that are right.
	for _, res := range []Response{{FrameID: 1}, {FrameID: 1, TraceID: 5}} {
		got, err := ReadResponse(bytes.NewReader(AppendResponse(nil, &res)))
		if err != nil || *got != res {
			t.Errorf("ReadResponse(%+v) = %+v, %v", res, got, err)
		}
	}
}

// silentReader delivers head and then goes quiet: the next Read blocks
// until release is closed (and then reports the end of the stream).
type silentReader struct {
	head    []byte
	blocked chan struct{}
	release chan struct{}
}

func (s *silentReader) Read(p []byte) (int, error) {
	if len(s.head) > 0 {
		n := copy(p, s.head)
		s.head = s.head[n:]
		return n, nil
	}
	close(s.blocked)
	<-s.release
	return 0, io.EOF
}

func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestHugePrefixThenSilencePinsOnePooledBuffer: a request that
// announces a 15 MB payload and then sends nothing holds MaxPooledBuf
// bytes, not 15 MB — for the streaming decoder and the one-shot reader
// alike.
func TestHugePrefixThenSilencePinsOnePooledBuffer(t *testing.T) {
	const payload = 15 << 20
	head, err := AppendRequest(nil, &Request{Model: models.MobileNetV3Small})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(head, 2+requestFixedLen+payload)
	binary.BigEndian.PutUint32(head[len(head)-4:], payload)

	for _, mode := range []string{"streaming", "one-shot"} {
		rd := &silentReader{head: head, blocked: make(chan struct{}), release: make(chan struct{})}
		before := heapAlloc()
		inUse := BufsInUse()
		done := make(chan error, 1)
		go func() {
			if mode == "one-shot" {
				_, err := ReadRequest(rd)
				done <- err
				return
			}
			dec := NewDecoder(rd)
			var req Request
			err := dec.ReadRequest(&req)
			dec.Reset(nil)
			done <- err
		}()
		<-rd.blocked
		if pinned := heapAlloc() - before; pinned > MaxPooledBuf+16<<10 {
			t.Errorf("%s: %d bytes pinned behind a silent 15 MB prefix, want ≤ %d", mode, pinned, MaxPooledBuf)
		}
		close(rd.release)
		if err := <-done; !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", mode, err)
		}
		if n := BufsInUse(); n != inUse {
			t.Errorf("%s: %d pooled buffers still out after the failed read", mode, n-inUse)
		}
	}
}

// TestLargePayloadGrowsAsItArrives: a payload above the largest pooled
// class arrives intact through the doubling path.
func TestLargePayloadGrowsAsItArrives(t *testing.T) {
	payload := make([]byte, 5*MaxPooledBuf+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msg, err := AppendRequest(nil, &Request{Model: models.EfficientNetB4, FrameID: 77, Payload: payload, TraceID: 3})
	if err != nil {
		t.Fatal(err)
	}
	one, err := ReadRequest(bytes.NewReader(msg))
	if err != nil || !bytes.Equal(one.Payload, payload) || one.TraceID != 3 {
		t.Fatalf("one-shot: err %v, payload intact %v", err, err == nil && bytes.Equal(one.Payload, payload))
	}
	inUse := BufsInUse()
	dec := NewDecoder(&chunkReader{stream: msg, cuts: []int{9000}})
	var req Request
	if err := dec.ReadRequest(&req); err != nil || !bytes.Equal(req.Payload, payload) || req.TraceID != 3 {
		t.Fatalf("streaming: err %v, payload intact %v", err, err == nil && bytes.Equal(req.Payload, payload))
	}
	req.Release()
	if req.Payload != nil {
		t.Fatal("Release left Payload pointing at returned storage")
	}
	req.Release() // a no-op once nothing is held
	dec.Reset(nil)
	if n := BufsInUse(); n != inUse {
		t.Fatalf("%d pooled buffers still out", n-inUse)
	}
}

func TestBufSizeClassesAndDoubleRelease(t *testing.T) {
	for _, c := range []struct{ n, wantCap int }{
		{0, 512}, {1, 512}, {512, 512}, {513, 1024}, {29000, 32768},
		{MaxPooledBuf, MaxPooledBuf}, {MaxPooledBuf + 1, MaxPooledBuf + 1},
	} {
		b := GetBuf(c.n)
		if len(b.B) != 0 || cap(b.B) != c.wantCap {
			t.Errorf("GetBuf(%d): len %d cap %d, want 0 and %d", c.n, len(b.B), cap(b.B), c.wantCap)
		}
		b.Release()
	}
	b := GetBuf(100)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

// loopReader replays one encoded message forever, several per Read.
type loopReader struct {
	msg []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.msg[l.off:])
		n += c
		l.off = (l.off + c) % len(l.msg)
	}
	return n, nil
}

// TestDecodeAllocFences: the one-shot ReadResponse costs the returned
// *Response and nothing else, the one-shot ReadRequest the *Request and
// its payload; the streaming decoder costs nothing in steady state.
func TestDecodeAllocFences(t *testing.T) {
	resMsg := AppendResponse(nil, &Response{FrameID: 7, Label: 7, BatchSize: 3})
	reqMsg, err := AppendRequest(nil, &Request{Model: models.MobileNetV3Small, Payload: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}

	rd := bytes.NewReader(nil)
	if n := testing.AllocsPerRun(1000, func() {
		rd.Reset(resMsg)
		if _, err := ReadResponse(rd); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("ReadResponse: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		rd.Reset(reqMsg)
		if _, err := ReadRequest(rd); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("ReadRequest: %v allocs, want 2", n)
	}

	dec := NewDecoder(&loopReader{msg: resMsg})
	var res Response
	if n := testing.AllocsPerRun(1000, func() {
		if err := dec.ReadResponse(&res); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Decoder.ReadResponse: %v allocs, want 0", n)
	}
	dec.Reset(&loopReader{msg: reqMsg})
	var req Request
	if n := testing.AllocsPerRun(1000, func() {
		if err := dec.ReadRequest(&req); err != nil {
			t.Fatal(err)
		}
		req.Release()
	}); n != 0 {
		t.Errorf("Decoder.ReadRequest: %v allocs, want 0", n)
	}
	dec.Reset(nil)
}
