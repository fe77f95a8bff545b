package netproto

import (
	"bytes"
	"testing"

	"repro/internal/models"
)

// Native fuzz targets: the decoders face bytes from the network and
// must never panic or over-allocate, whatever arrives. `go test`
// exercises the seed corpus; `go test -fuzz=FuzzReadRequest` explores.

func FuzzReadRequest(f *testing.F) {
	// Seeds: a valid message, a truncation, type/version confusion,
	// and garbage.
	var valid bytes.Buffer
	_ = WriteRequest(&valid, &Request{
		Stream: 1, FrameID: 2, Model: models.MobileNetV3Small,
		CapturedUnixNano: 3, Payload: []byte("abc"),
	})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-2])
	f.Add([]byte{0, 0, 0, 2, Version, TypeResponse})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	for _, c := range corruptRequests(f) {
		f.Add(c.msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must round-trip.
		var buf bytes.Buffer
		if err := WriteRequest(&buf, req); err != nil {
			t.Fatalf("decoded request fails to re-encode: %v", err)
		}
		again, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("re-encoded request fails to decode: %v", err)
		}
		if again.FrameID != req.FrameID || again.Model != req.Model ||
			!bytes.Equal(again.Payload, req.Payload) {
			t.Fatal("request round-trip mismatch after fuzz decode")
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteResponse(&valid, &Response{FrameID: 9, Rejected: true, Label: -1, BatchSize: 15})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:3])
	f.Add([]byte{0, 0, 0, 0})
	for _, c := range corruptResponses() {
		f.Add(c.msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ReadResponse(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, res); err != nil {
			t.Fatalf("decoded response fails to re-encode: %v", err)
		}
		again, err := ReadResponse(&buf)
		if err != nil || *again != *res {
			t.Fatalf("response round-trip mismatch: %v / %+v vs %+v", err, again, res)
		}
	})
}
