// Package netproto defines the wire protocol for the real-network
// mode: length-prefixed binary messages carrying inference requests
// (device → server) and results (server → device) over TCP.
//
// Framing: every message is
//
//	uint32  body length (big endian, excludes this prefix)
//	uint8   protocol version (Version)
//	uint8   message type
//	...     fixed-layout body
//
// The request body ends with a variable-length payload — the (virtual)
// JPEG bytes — so that offloading consumes real uplink bandwidth.
//
// Encoding is Append* into a caller-owned buffer. Decoding is one pure
// function per message type (decodeRequestHead, decodeResponse) behind
// two front ends: the streaming Decoder (decoder.go), which reads ahead
// and keeps payloads in pooled buffers (pool.go), and the one-shot
// ReadRequest / ReadResponse, which consume exactly one message from any
// io.Reader.
package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/models"
)

// Version is the protocol version byte.
const Version = 1

// Message types.
const (
	TypeRequest  = 1
	TypeResponse = 2
)

// MaxMessageSize bounds a message body; larger prefixes indicate a
// corrupt or hostile stream.
const MaxMessageSize = 16 << 20

// Errors returned by the decoders.
var (
	ErrBadVersion = errors.New("netproto: unsupported protocol version")
	ErrBadType    = errors.New("netproto: unexpected message type")
	ErrTooLarge   = errors.New("netproto: message exceeds MaxMessageSize")
	ErrTruncated  = errors.New("netproto: truncated message body")
)

// Request is an inference task: classify Payload with Model.
type Request struct {
	// Stream identifies the device (tenant) on this connection.
	Stream uint32
	// FrameID echoes back in the response for matching.
	FrameID uint64
	// Model selects the classifier.
	Model models.Model
	// CapturedUnixNano is the capture timestamp for end-to-end
	// latency accounting.
	CapturedUnixNano int64
	// Probe marks heartbeat requests that should not count toward
	// workload statistics.
	Probe bool
	// TraceID, when non-zero, links the request to a device-side
	// lifecycle span (internal/spans). It travels as an optional
	// trailing field after the payload: writers omit it when zero, so
	// untraced traffic is byte-identical to the pre-trace protocol,
	// and readers accept both lengths.
	TraceID uint64
	// Payload is the encoded frame.
	Payload []byte

	// buf is the pooled storage behind Payload when the request came
	// from Decoder.ReadRequest (see Release).
	buf *Buf
}

// Response is the server's verdict on one request.
type Response struct {
	FrameID uint64
	// Rejected reports load shedding (the batcher's overflow).
	Rejected bool
	// Label is the (simulated) classification result.
	Label int32
	// BatchSize is the executing batch's size (0 when rejected).
	BatchSize uint16
	// TraceID echoes the request's trace identifier (optional
	// trailing field, omitted when zero — see Request.TraceID).
	TraceID uint64
}

const requestFixedLen = 4 + 8 + 1 + 8 + 1 + 4 // stream, frame, model, captured, probe, payloadLen
const responseLen = 8 + 1 + 4 + 2
const traceLen = 8 // optional trailing trace ID on either message

// What a decoder looks at before it reserves anything: version, type
// and the fixed fields of a request; the whole of a response.
const requestHeadLen = 2 + requestFixedLen
const maxResponseBody = 2 + responseLen + traceLen

// MaxResponseLen is the longest encoded response, length prefix and
// trace ID included: what a writer reserves per response it coalesces.
const MaxResponseLen = 4 + maxResponseBody

// AppendRequest appends one fully framed request message (length
// prefix included) to buf and returns the extended slice. Callers that
// reuse buf across messages avoid the per-message allocation of
// WriteRequest.
func AppendRequest(buf []byte, r *Request) ([]byte, error) {
	if !r.Model.Valid() {
		return buf, fmt.Errorf("netproto: invalid model %d", int(r.Model))
	}
	bodyLen := 2 + requestFixedLen + len(r.Payload)
	if r.TraceID != 0 {
		bodyLen += traceLen
	}
	buf = growFrame(buf, bodyLen)
	o := len(buf) - bodyLen
	buf[o] = Version
	buf[o+1] = TypeRequest
	o += 2
	binary.BigEndian.PutUint32(buf[o:], r.Stream)
	o += 4
	binary.BigEndian.PutUint64(buf[o:], r.FrameID)
	o += 8
	buf[o] = byte(r.Model)
	o++
	binary.BigEndian.PutUint64(buf[o:], uint64(r.CapturedUnixNano))
	o += 8
	if r.Probe {
		buf[o] = 1
	} else {
		buf[o] = 0
	}
	o++
	binary.BigEndian.PutUint32(buf[o:], uint32(len(r.Payload)))
	o += 4
	copy(buf[o:], r.Payload)
	if r.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[o+len(r.Payload):], r.TraceID)
	}
	return buf, nil
}

// AppendResponse appends one fully framed response message (length
// prefix included) to buf and returns the extended slice.
func AppendResponse(buf []byte, r *Response) []byte {
	bodyLen := 2 + responseLen
	if r.TraceID != 0 {
		bodyLen += traceLen
	}
	buf = growFrame(buf, bodyLen)
	o := len(buf) - bodyLen
	buf[o] = Version
	buf[o+1] = TypeResponse
	o += 2
	binary.BigEndian.PutUint64(buf[o:], r.FrameID)
	o += 8
	if r.Rejected {
		buf[o] = 1
	} else {
		buf[o] = 0
	}
	o++
	binary.BigEndian.PutUint32(buf[o:], uint32(r.Label))
	o += 4
	binary.BigEndian.PutUint16(buf[o:], r.BatchSize)
	o += 2
	if r.TraceID != 0 {
		binary.BigEndian.PutUint64(buf[o:], r.TraceID)
	}
	return buf
}

// growFrame extends buf by a 4-byte length prefix plus bodyLen body
// bytes and fills in the prefix. The body bytes are NOT cleared — when
// buf is reused its stale content shows through, so the Append*
// encoders must write every single body byte unconditionally.
func growFrame(buf []byte, bodyLen int) []byte {
	start := len(buf)
	need := start + 4 + bodyLen
	if cap(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	} else {
		buf = buf[:need]
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(bodyLen))
	return buf
}

// WriteRequest encodes and writes one request as a single Write call.
func WriteRequest(w io.Writer, r *Request) error {
	buf, err := AppendRequest(nil, r)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteResponse encodes and writes one response as a single Write
// call.
func WriteResponse(w io.Writer, r *Response) error {
	_, err := w.Write(AppendResponse(nil, r))
	return err
}

// midMessage maps an end of stream inside a message to
// io.ErrUnexpectedEOF; io.EOF is reserved for a stream that ends
// between messages.
func midMessage(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// bodyLen decodes a length prefix. An oversized or undersized one is
// refused here, before anything is read or reserved for the body.
func bodyLen(prefix []byte) (int, error) {
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxMessageSize {
		return 0, ErrTooLarge
	}
	if n < 2 {
		return 0, ErrTruncated
	}
	return int(n), nil
}

// The decode functions below take a message's body length n and b, the
// first bytes of that body: as many as the function names, or fewer when
// the stream ended or failed first, in which case short is that error.
// What the bytes that did arrive prove wrong is reported before short,
// so a verdict does not depend on how the stream was cut into reads.

// checkKind validates the version and type bytes.
func checkKind(b []byte, want byte, short error) error {
	switch {
	case len(b) < 2:
		return short
	case b[0] != Version:
		return ErrBadVersion
	case b[1] != want:
		return ErrBadType
	}
	return nil
}

// decodeRequestHead decodes everything of a request but its payload
// and trace ID from the first min(n, requestHeadLen) body bytes. It
// returns the payload length and whether a trace ID follows the
// payload: the body is exactly head + payload, or that and 8 bytes, and
// a payload length that disagrees is refused before any payload byte is
// consumed.
func decodeRequestHead(req *Request, n int, b []byte, short error) (payloadLen int, traced bool, err error) {
	if err := checkKind(b, TypeRequest, short); err != nil {
		return 0, false, err
	}
	if n < requestHeadLen {
		return 0, false, ErrTruncated
	}
	if len(b) < requestHeadLen {
		return 0, false, short
	}
	h := b[2:]
	req.Stream = binary.BigEndian.Uint32(h)
	req.FrameID = binary.BigEndian.Uint64(h[4:])
	req.Model = models.Model(h[12])
	req.CapturedUnixNano = int64(binary.BigEndian.Uint64(h[13:]))
	req.Probe = h[21] == 1
	req.TraceID = 0
	trailer := int64(n-requestHeadLen) - int64(binary.BigEndian.Uint32(h[22:]))
	if trailer != 0 && trailer != traceLen {
		return 0, false, ErrTruncated
	}
	if !req.Model.Valid() {
		return 0, false, fmt.Errorf("netproto: invalid model byte %d", h[12])
	}
	return n - requestHeadLen - int(trailer), trailer != 0, nil
}

// decodeResponse decodes a response from the first
// min(n, maxResponseBody) body bytes: exactly the fixed body, or that and
// a trace ID.
func decodeResponse(res *Response, n int, b []byte, short error) error {
	if err := checkKind(b, TypeResponse, short); err != nil {
		return err
	}
	if n != 2+responseLen && n != maxResponseBody {
		return ErrTruncated
	}
	if len(b) < n {
		return short
	}
	h := b[2:n]
	res.FrameID = binary.BigEndian.Uint64(h)
	res.Rejected = h[8] == 1
	res.Label = int32(binary.BigEndian.Uint32(h[9:]))
	res.BatchSize = binary.BigEndian.Uint16(h[13:])
	res.TraceID = 0
	if len(h) > responseLen {
		res.TraceID = binary.BigEndian.Uint64(h[responseLen:])
	}
	return nil
}

// readLen reads a length prefix into p and returns the body length.
func readLen(r io.Reader, p []byte) (int, error) {
	if _, err := io.ReadFull(r, p); err != nil {
		return 0, err
	}
	return bodyLen(p)
}

// ReadRequest reads and decodes one request message, consuming exactly
// that message from r. The request and its payload are freshly
// allocated and belong to the caller. The payload's storage is reserved
// as the bytes arrive, like the Decoder's.
func ReadRequest(r io.Reader) (*Request, error) {
	// One allocation holds the result and the scratch for its head (a
	// local array would escape through r.Read anyway).
	s := &struct {
		req  Request
		head [4 + requestHeadLen]byte
	}{}
	n, err := readLen(r, s.head[:4])
	if err != nil {
		return nil, err
	}
	head := s.head[4 : 4+min(n, requestHeadLen)]
	k, err := io.ReadFull(r, head)
	payloadLen, traced, err := decodeRequestHead(&s.req, n, head[:k], midMessage(err))
	if err != nil {
		return nil, err
	}
	// The payload and the trace ID behind it, in one buffer.
	rest := n - requestHeadLen
	p := make([]byte, min(rest, MaxPooledBuf))
	for got := 0; ; {
		if _, err := io.ReadFull(r, p[got:]); err != nil {
			return nil, midMessage(err)
		}
		if len(p) == rest {
			break
		}
		got = len(p)
		p = append(make([]byte, 0, min(rest, 2*got)), p...)[:min(rest, 2*got)]
	}
	s.req.Payload = p[:payloadLen:payloadLen]
	if traced {
		s.req.TraceID = binary.BigEndian.Uint64(p[payloadLen:])
	}
	return &s.req, nil
}

// ReadResponse reads and decodes one response message, consuming
// exactly that message from r.
func ReadResponse(r io.Reader) (*Response, error) {
	// One allocation holds the result and the scratch it is decoded from.
	s := &struct {
		res Response
		b   [MaxResponseLen]byte
	}{}
	n, err := readLen(r, s.b[:4])
	if err != nil {
		return nil, err
	}
	body := s.b[4 : 4+min(n, maxResponseBody)]
	k, err := io.ReadFull(r, body)
	if err := decodeResponse(&s.res, n, body[:k], midMessage(err)); err != nil {
		return nil, err
	}
	return &s.res, nil
}
