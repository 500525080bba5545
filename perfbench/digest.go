package main

import (
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
)

// digest hashes a run's simulated results, so two commits can be
// compared for identical statistics without a stored copy of them.
type digest struct {
	h   hash.Hash64
	err error
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *digest) addJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil && d.err == nil {
		d.err = err
	}
	d.h.Write(b)
}

func (d *digest) sum() string {
	if d.err != nil {
		return "error: " + d.err.Error()
	}
	return fmt.Sprintf("%016x", d.h.Sum64())
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// sustained returns the upper quartile of a run's throughput samples.
// Other tenants on the host only ever slow a sample down, and on a
// shared host they come and go for seconds at a time; the upper
// quartile tracks the rate the program sustains between those bursts
// and varied about half as much as the median from run to run.
func sustained(rates []float64) float64 {
	_, _, q3 := quartiles(rates)
	return q3
}
