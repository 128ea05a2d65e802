package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// This file decodes the subset of the pprof profile.proto format that
// runtime/pprof's CPU profile uses: samples, locations, functions and
// the string table. The standard library has no public decoder and the
// benchmark takes no third-party modules.

// cpuSample is one stack (innermost frame first) and its CPU time.
type cpuSample struct {
	stack []frame
	ns    int64
}

var errTruncated = errors.New("pprof: truncated message")

type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// next returns the next field's number, wire type, and its varint value
// (wire type 0) or bytes (wire type 2).
func (r *pbReader) next() (num int, wt int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", wt)
	}
	return num, wt, v, data, err
}

// uints appends a repeated integer field, packed or not.
func uints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	p := pbReader{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type pbLine struct{ fn uint64 }

// parseCPUProfile decodes a gzipped CPU profile into samples, using the
// sample value whose type is "cpu".
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs     []string
		types    []uint64 // string index of each sample type
		samples  []rawSample
		locLines = map[uint64][]pbLine{}
		funcs    = map[uint64][2]uint64{} // id -> name, filename string indices
	)
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, wt, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		m := pbReader{data}
		switch num {
		case 1: // sample_type
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				if f == 1 {
					types = append(types, v)
				}
			}
		case 2: // sample
			var s rawSample
			for len(m.b) > 0 {
				f, fwt, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, fwt, v, d)
				case 2:
					s.vals, err = uints(s.vals, fwt, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var lines []pbLine
			for len(m.b) > 0 {
				f, _, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					l := pbReader{d}
					var ln pbLine
					for len(l.b) > 0 {
						lf, _, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							ln.fn = lv
						}
					}
					lines = append(lines, ln)
				}
			}
			locLines[id] = lines
		case 5: // function
			var id uint64
			var name [2]uint64
			for len(m.b) > 0 {
				f, _, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name[0] = v
				case 4:
					name[1] = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			if wt != 2 {
				return nil, errors.New("pprof: malformed string table")
			}
			strs = append(strs, string(data))
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("pprof: profile has no cpu sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.vals) {
			return nil, errors.New("pprof: sample without cpu value")
		}
		cs := cpuSample{ns: int64(s.vals[cpu])}
		for _, l := range s.locs {
			// A location's lines run from the innermost inlined call
			// outwards, so the flattened stack stays innermost first.
			for _, ln := range locLines[l] {
				fn := funcs[ln.fn]
				cs.stack = append(cs.stack, frame{fn: str(fn[0]), file: str(fn[1])})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}
