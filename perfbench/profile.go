package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuProfile captures a CPU profile of one timed phase in memory. The
// raw profile is also written next to the spans, so `go tool pprof`
// can read the same samples the attribution used.
type cpuProfile struct {
	buf bytes.Buffer
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, saves it at path, and returns the self time of
// every sampled function in nanoseconds.
func (p *cpuProfile) stop(path string) (map[string]int64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return selfByFunction(p.buf.Bytes())
}

// selfByFunction decodes a gzipped pprof profile and charges each
// sample's CPU time to the innermost function of its leaf location —
// pprof's "flat" time. Only the fields attribution needs are read:
// samples, locations, functions and the string table.
func selfByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc    uint64
		values []int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		valueSlot = -1
		types     []int64 // sample_type type-name string indices
	)
	err = walkProto(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var unit int64
			err := walkProto(b, func(f, w int, v uint64, _ []byte) error {
				if f == 2 {
					unit = int64(v)
				}
				return nil
			})
			types = append(types, unit)
			return err
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := walkProto(b, func(f, w int, v uint64, pb []byte) error {
				switch {
				case f == 1 && w == 0:
					locs = append(locs, v)
				case f == 1 && w == 2:
					return eachVarint(pb, func(x uint64) { locs = append(locs, x) })
				case f == 2 && w == 0:
					vals = append(vals, int64(v))
				case f == 2 && w == 2:
					return eachVarint(pb, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{loc: locs[0], values: vals})
			}
		case 4: // location
			var id, fn uint64
			seenLine := false
			err := walkProto(b, func(f, w int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine { // first line entry is the innermost inlined function
						return nil
					}
					seenLine = true
					return walkProto(lb, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
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
		case 5: // function
			var id uint64
			var name int64
			err := walkProto(b, func(f, w int, v uint64, _ []byte) error {
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
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "nanoseconds" {
			valueSlot = i
		}
	}
	if valueSlot < 0 {
		return nil, errors.New("profile: no nanoseconds sample value")
	}
	out := make(map[string]int64)
	for _, s := range samples {
		if valueSlot >= len(s.values) {
			return nil, errors.New("profile: sample without a nanoseconds value")
		}
		name := "unknown"
		if fn, ok := locFunc[s.loc]; ok {
			if si, ok := funcName[fn]; ok && int(si) < len(strs) {
				name = strs[si]
			}
		}
		out[name] += s.values[valueSlot]
	}
	return out, nil
}

// walkProto calls fn for every field of a protobuf message: varints
// arrive in v, length-delimited fields in b. Fixed-width fields are
// skipped (the profile format uses none that attribution needs).
func walkProto(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, wire, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

// layerOf names the layer a function belongs to: the package under
// repro/internal for the program's own code, "runtime" for the Go
// runtime (garbage collector, scheduler, maps), "main" for the
// benchmark itself, and "other" for the rest of the standard library.
func layerOf(fn string) string {
	const own = "repro/internal/"
	if strings.HasPrefix(fn, own) {
		rest := fn[len(own):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/perfbench.") {
		return "main" // the benchmark itself; its test binary names it by import path
	}
	return "other"
}

// layerSelf sums function self times by layer.
func layerSelf(byFn map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for fn, ns := range byFn {
		out[layerOf(fn)] += ns
	}
	return out
}

// matchSelf sums the self time of every function whose name ends with
// one of the suffixes (method names such as "(*EDFTree).Select").
func matchSelf(byFn map[string]int64, pkg string, suffixes ...string) int64 {
	var sum int64
	for fn, ns := range byFn {
		if layerOf(fn) != pkg {
			continue
		}
		for _, s := range suffixes {
			if strings.HasSuffix(fn, s) {
				sum += ns
				break
			}
		}
	}
	return sum
}
