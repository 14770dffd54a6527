package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// profileShares reads a CPU profile (gzipped profile.proto, as written by
// runtime/pprof) and returns the share of CPU time spent under each
// ltqp/internal module: a sample counts for the module of its innermost
// ltqp/internal frame, so runtime work (allocation, hashing) a module asks
// for is its own. Samples with no engine frame count as "other".
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64 // innermost first
		value int64
	}
	var (
		strs     []string
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]int64{}    // function id → string index
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var locs, vals []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = appendPacked(locs, v, b)
				case 2:
					vals = appendPacked(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			// Values are (samples, cpu nanoseconds).
			s.locs, s.value = locs, int64(vals[len(vals)-1])
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; inlined frames come innermost first
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	module := func(s sample) string {
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if rest, ok := strings.CutPrefix(strs[idx], "ltqp/internal/"); ok {
					if i := strings.IndexAny(rest, "./"); i > 0 {
						return rest[:i]
					}
				}
			}
		}
		return "other"
	}
	for _, s := range samples {
		shares[module(s)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// protoFields walks the fields of one protobuf message, passing varint and
// fixed-size values as v and length-delimited ones as b.
func protoFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errBadProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errBadProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errBadProto
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errBadProto
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errBadProto
			}
			buf = buf[4:]
		default:
			return errBadProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(out []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(out, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
