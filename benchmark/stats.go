package main

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// sink keeps every probe result reachable so the compiler cannot discard a
// measured call whose value the harness does not otherwise use.
var sink any

// metric is one named number of a run. A timing or memory metric is the
// median of Samples; an exact metric has no samples beyond its value.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

func medianMetric(name, unit string, samples []float64) metric {
	return metric{Name: name, Unit: unit, Value: median(samples), Samples: samples}
}

// summary renders the spread of a sampled metric: printed as information,
// because with a dozen samples no percentile above the median has ten
// samples beyond it.
func (m metric) summary() string {
	if len(m.Samples) < 2 {
		return ""
	}
	s := sorted(m.Samples)
	q1, q3 := quartiles(m.Samples)
	return fmt.Sprintf("samples=%d min=%.4g q1=%.4g q3=%.4g max=%.4g", len(s), s[0], q1, q3, s[len(s)-1])
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so the
// spreads printed here are the ones an outside reader would compute from the
// same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
func micros(d time.Duration) float64 { return float64(d) / 1e3 }

// perSecond is a rate in millions of units per second.
func perSecond(units int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(units) / 1e6 / d.Seconds()
}

// countReader and countWriter meter the bytes that cross an I/O boundary, so
// a throughput is computed from what the layer actually read or wrote, not
// from the size the harness expected.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
