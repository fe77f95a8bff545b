package netproto

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Buffer size classes: powers of two from 512 B to 64 KB. A request for
// more than the largest class is served by a plain allocation that the
// garbage collector reclaims after Release.
const (
	minClassShift = 9
	maxClassShift = 16
	numClasses    = maxClassShift - minClassShift + 1

	// MaxPooledBuf is the largest pooled buffer, and the most the
	// decoder reserves for a payload before any of its bytes arrived.
	MaxPooledBuf = 1 << maxClassShift
)

// Buf is a byte buffer from the size-classed pool. Whoever holds it owns
// B exclusively until Release; releasing twice panics.
type Buf struct {
	B     []byte
	class int8 // index into bufPools, or -1 when larger than every class
	free  bool
}

var (
	bufPools  [numClasses]sync.Pool
	bufsInUse atomic.Int64
)

// GetBuf returns a buffer with len(B) == 0 and cap(B) >= n.
func GetBuf(n int) *Buf {
	bufsInUse.Add(1)
	c := 0
	if n > 1<<minClassShift {
		c = bits.Len(uint(n-1)) - minClassShift
	}
	if c >= numClasses {
		return &Buf{B: make([]byte, 0, n), class: -1}
	}
	if b, ok := bufPools[c].Get().(*Buf); ok {
		b.free = false
		return b
	}
	return &Buf{B: make([]byte, 0, 1<<(c+minClassShift)), class: int8(c)}
}

// Release returns the buffer to its pool. B must not be used afterwards.
func (b *Buf) Release() {
	if b.free {
		panic("netproto: Buf released twice")
	}
	b.free = true
	bufsInUse.Add(-1)
	if b.class >= 0 {
		b.B = b.B[:0]
		bufPools[b.class].Put(b)
	}
}

// BufsInUse reports how many buffers are out of the pool (GetBuf calls
// minus Release calls, process-wide). A quiescent system reads 0; tests
// use it to prove that no path leaks or double-frees a buffer.
func BufsInUse() int64 { return bufsInUse.Load() }
