package netproto

import (
	"encoding/binary"
	"io"
)

const (
	// headRoom is the decoder's inline read-ahead storage: all that a
	// connection holds while it waits for the next message.
	headRoom = 128
	// readAhead is the pooled read-ahead storage, held only while bytes
	// are buffered.
	readAhead = 4096
)

// Decoder reads messages off one connection with read-ahead: one Read
// can return many small messages, and each is then decoded from memory.
//
// A blocking Read uses the inline array. When a Read ends inside a
// message, more bytes are on their way and the decoder moves to a
// pooled readAhead-sized buffer, which it gives back as soon as every
// buffered byte is consumed — so an idle connection pins headRoom
// bytes, never a pooled buffer. Payloads bypass the read-ahead: the
// part already buffered is copied and the rest is read straight into
// the payload's own storage.
//
// The zero Decoder is ready after Reset. It is not safe for concurrent
// use. After a decode error the stream position is undefined.
type Decoder struct {
	r    io.Reader
	data []byte // read and not yet consumed; aliases head or big.B
	big  *Buf
	head [headRoom]byte
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	d := &Decoder{}
	d.Reset(r)
	return d
}

// Reset discards buffered bytes, returns pooled storage and makes the
// decoder read from r. Reset(nil) is how a finished connection lets go
// of its decoder's storage.
func (d *Decoder) Reset(r io.Reader) {
	d.dropBig()
	d.data = nil
	d.r = r
}

func (d *Decoder) dropBig() {
	if d.big != nil {
		d.big.Release()
		d.big = nil
	}
}

// fill reads until at least k bytes are buffered; k never exceeds a
// fixed head, so it always fits either storage. On error the bytes
// that did arrive stay buffered.
func (d *Decoder) fill(k int) error {
	for len(d.data) < k {
		var dst []byte
		if len(d.data) == 0 {
			d.dropBig()
			d.data = d.head[:0]
			dst = d.head[:]
		} else {
			// The last Read ended inside a message.
			if d.big == nil {
				d.big = GetBuf(readAhead)
			}
			store := d.big.B[:cap(d.big.B)]
			n := copy(store, d.data)
			d.data = store[:n]
			dst = store[n:]
		}
		n, err := d.r.Read(dst)
		d.data = d.data[:len(d.data)+n]
		if err != nil && len(d.data) < k {
			return err
		}
	}
	return nil
}

// peek buffers the next k bytes, or as many as arrive before the stream
// ends or fails (the error says which), and returns them unconsumed.
func (d *Decoder) peek(k int) ([]byte, error) {
	err := d.fill(k)
	return d.data[:min(k, len(d.data))], err
}

// messageLen consumes a length prefix and returns the body length.
// io.EOF means the stream ended between messages.
func (d *Decoder) messageLen() (int, error) {
	p, err := d.peek(4)
	if err != nil {
		if len(p) > 0 {
			err = midMessage(err)
		}
		return 0, err
	}
	d.data = d.data[4:]
	return bodyLen(p)
}

// ReadRequest decodes the next request into *req, overwriting every
// field. req.Payload aliases pooled storage that the caller returns
// with req.Release once it is done with the payload; req must not hold
// unreleased storage from an earlier call. On error nothing is held.
func (d *Decoder) ReadRequest(req *Request) error {
	n, err := d.messageLen()
	if err != nil {
		return err
	}
	h, err := d.peek(min(n, requestHeadLen))
	payloadLen, traced, err := decodeRequestHead(req, n, h, midMessage(err))
	if err != nil {
		return err
	}
	d.data = d.data[requestHeadLen:]
	if err := d.readPayload(req, payloadLen); err != nil {
		return err
	}
	if traced {
		t, err := d.peek(traceLen)
		if err != nil {
			req.Release()
			return midMessage(err)
		}
		req.TraceID = binary.BigEndian.Uint64(t)
		d.data = d.data[traceLen:]
	}
	return nil
}

// readPayload reads the n payload bytes that follow a request's head
// into pooled storage behind req.Payload. Storage is reserved as the
// bytes arrive: at most MaxPooledBuf up front, then doubling, so a
// hostile length prefix followed by silence pins MaxPooledBuf and a slow
// sender never more than twice what it delivered.
func (d *Decoder) readPayload(req *Request, n int) error {
	size := min(n, MaxPooledBuf)
	req.buf = GetBuf(size)
	p := req.buf.B[:size]
	got := copy(p, d.data)
	d.data = d.data[got:]
	for {
		if _, err := io.ReadFull(d.r, p[got:]); err != nil {
			req.Release()
			return midMessage(err)
		}
		if len(p) == n {
			break
		}
		got = len(p)
		size = min(n, 2*got)
		grown := GetBuf(size)
		copy(grown.B[:size], p)
		req.buf.Release()
		req.buf = grown
		p = grown.B[:size]
	}
	req.Payload = p
	return nil
}

// ReadResponse decodes the next response into *res, overwriting every
// field. It allocates nothing.
func (d *Decoder) ReadResponse(res *Response) error {
	n, err := d.messageLen()
	if err != nil {
		return err
	}
	b, err := d.peek(min(n, maxResponseBody))
	if err := decodeResponse(res, n, b, midMessage(err)); err != nil {
		return err
	}
	d.data = d.data[n:]
	return nil
}

// Wait blocks until at least one byte of the next message is buffered,
// so that a caller can take the record it decodes into from a pool only
// once there is something to decode.
func (d *Decoder) Wait() error {
	if len(d.data) > 0 {
		return nil
	}
	return d.fill(1)
}

// Release returns the payload storage of a request decoded by
// Decoder.ReadRequest to the pool; Payload is nil afterwards. It is a
// no-op on any other request.
func (r *Request) Release() {
	if r.buf != nil {
		r.buf.Release()
		r.buf = nil
		r.Payload = nil
	}
}
