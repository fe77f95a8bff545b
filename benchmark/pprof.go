package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// profile is a CPU profile being taken of one workload.
type profile struct {
	buf     bytes.Buffer
	started bool
}

func startProfile() *profile {
	p := &profile{}
	p.started = pprof.StartCPUProfile(&p.buf) == nil
	return p
}

// stop ends the profile and returns the share of flat samples whose
// leaf function lives in each of profiledPackages, plus "other".
func (p *profile) stop() map[string]float64 {
	if !p.started {
		return nil
	}
	pprof.StopCPUProfile()
	leaves, err := leafFunctions(p.buf.Bytes())
	if err != nil {
		return nil
	}
	return packageShares(leaves)
}

// packageShares groups leaf-function sample counts by package.
func packageShares(leaves map[string]int64) map[string]float64 {
	var total int64
	byPkg := map[string]int64{}
	for fn, n := range leaves {
		total += n
		byPkg[bucketOf(fn)] += n
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for pkg, n := range byPkg {
		out[pkg] = float64(n) / float64(total)
	}
	return out
}

// bucketOf maps a symbol such as "repro/internal/simtime.(*Scheduler).Step"
// to the last element of its package path, folded onto profiledPackages.
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	last := pkg[strings.LastIndexByte(pkg, '/')+1:]
	if strings.HasPrefix(pkg, "runtime") || strings.HasPrefix(pkg, "internal/runtime") && last != "syscall" {
		return "runtime"
	}
	for _, p := range profiledPackages {
		if last == p {
			return p
		}
	}
	return "other"
}

// leafFunctions decodes just enough of a gzipped pprof profile
// (profile.proto) to count, per function name, the samples whose
// innermost frame it is. The first sample value is the sample count.
func leafFunctions(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> function id of its innermost line
	funcName := map[uint64]uint64{} // function id -> string table index
	var strs []string

	err = eachField(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var haveLeaf, haveCount bool
			err := eachField(body, func(n int, v uint64, b []byte) error {
				first := func() (uint64, error) {
					if b == nil {
						return v, nil // unpacked
					}
					x, k := binary.Uvarint(b)
					if k <= 0 {
						return 0, errors.New("pprof: bad packed varint")
					}
					return x, nil
				}
				switch {
				case n == 1 && !haveLeaf:
					x, err := first()
					s.leaf, haveLeaf = x, true
					return err
				case n == 2 && !haveCount:
					x, err := first()
					s.count, haveCount = int64(x), true
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLeaf {
				samples = append(samples, s)
			}
		case 4: // Location
			var id, fn uint64
			var haveLine bool
			err := eachField(body, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !haveLine: // first Line is the innermost inlined frame
					haveLine = true
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(body, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) && idx != 0 {
			name = strs[idx]
		}
		out[name] += s.count
	}
	return out, nil
}

// eachField walks one protobuf message. Varint fields arrive in
// varint with a nil body, length-delimited fields in body.
func eachField(msg []byte, f func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, k := binary.Uvarint(msg)
		if k <= 0 {
			return errors.New("pprof: bad field key")
		}
		msg = msg[k:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, k := binary.Uvarint(msg)
			if k <= 0 {
				return errors.New("pprof: bad varint")
			}
			msg = msg[k:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("pprof: short fixed64")
			}
			msg = msg[8:]
		case 2:
			n, k := binary.Uvarint(msg)
			if k <= 0 || uint64(len(msg)-k) < n {
				return errors.New("pprof: short length-delimited field")
			}
			if err := f(num, 0, msg[k:k+int(n)]); err != nil {
				return err
			}
			msg = msg[k+int(n):]
		case 5:
			if len(msg) < 4 {
				return errors.New("pprof: short fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("pprof: unsupported wire type")
		}
	}
	return nil
}
