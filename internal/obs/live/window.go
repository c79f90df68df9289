package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// WindowSnap is one closed telemetry window: every metric that was
// touched during the window, with per-window aggregates. Sections are
// sorted by name and the encoding has no floating timestamps, so in
// deterministic mode the JSONL stream of snapshots is byte-identical
// at every host worker count.
type WindowSnap struct {
	// Window is the zero-based window index; strictly monotone within
	// a stream.
	Window int64 `json:"w"`
	// Label names what closed the window: a boundary label ("epoch",
	// "runplan", ...), "tick" for wall-clock windows, "final" for the
	// catch-all window Close emits.
	Label string `json:"label"`
	// Span is the window's extent in the boundary's own stable unit
	// (epochs, simulated cycles) or seconds for wall-clock windows.
	// Always > 0; rates are per span unit.
	Span float64 `json:"span"`

	Counters []CounterWin `json:"counters,omitempty"`
	Gauges   []GaugeWin   `json:"gauges,omitempty"`
	Hists    []HistWin    `json:"hists,omitempty"`
}

// CounterWin is one counter's window view.
type CounterWin struct {
	Name  string  `json:"name"`
	Delta int64   `json:"delta"` // adds during this window
	Total int64   `json:"total"` // cumulative since attach
	Rate  float64 `json:"rate"`  // Delta / Span
}

// GaugeWin is one gauge's window view.
type GaugeWin struct {
	Name string  `json:"name"`
	Last float64 `json:"last"` // last plain Set (high-water if only SetMax raised)
	High float64 `json:"high"` // window high-water across Sets and SetMax raises
	Sets int64   `json:"sets"` // plain Sets this window
}

// Bucket is one occupied log bucket: Idx 0 counts observations <= 0,
// Idx i >= 1 counts observations in [2^(i-1), 2^i).
type Bucket struct {
	Idx int   `json:"i"`
	N   int64 `json:"n"`
}

// HistWin is one histogram's window view: a sparse log-bucketed
// snapshot plus estimated quantiles.
type HistWin struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P99     float64  `json:"p99"`
}

// bucketBounds returns the value range [lo, hi] covered by log bucket
// idx.
func bucketBounds(idx int) (lo, hi float64) {
	if idx == 0 {
		return 0, 0
	}
	lo = math.Ldexp(1, idx-1) // 2^(idx-1)
	hi = math.Ldexp(1, idx)   // 2^idx (exclusive; callers treat as upper edge)
	return lo, hi
}

// bucketQuantile estimates quantile q of a window histogram by linear
// interpolation inside the log bucket holding the q-th observation,
// clamped to the window's observed [Min, Max] so estimates never
// leave the data's actual range.
func bucketQuantile(h HistWin, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var seen float64
	for _, b := range h.Buckets {
		seen += float64(b.N)
		if seen >= rank {
			lo, hi := bucketBounds(b.Idx)
			var v float64
			if b.Idx == 0 {
				v = 0
			} else {
				// Position of the rank within this bucket, in [0, 1].
				frac := 1 - (seen-rank)/float64(b.N)
				v = lo + frac*(hi-lo)
			}
			v = math.Max(v, float64(h.Min))
			v = math.Min(v, float64(h.Max))
			return v
		}
	}
	return float64(h.Max)
}

// ReadStream parses a JSONL snapshot stream and validates its
// invariants: strictly monotone window indexes from 0, positive
// spans, non-negative counter deltas/rates with consistent totals,
// and histogram quantiles ordered and inside the observed [min, max].
// It returns the parsed snapshots or the first violation.
func ReadStream(r io.Reader) ([]WindowSnap, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		snaps  []WindowSnap
		totals = map[string]int64{}
		line   int
	)
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s WindowSnap
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("live: line %d: %w", line, err)
		}
		if s.Window != int64(len(snaps)) {
			return nil, fmt.Errorf("live: line %d: window index %d, want %d (monotone from 0)", line, s.Window, len(snaps))
		}
		if !(s.Span > 0) {
			return nil, fmt.Errorf("live: window %d: span %v, want > 0", s.Window, s.Span)
		}
		for _, c := range s.Counters {
			if c.Delta < 0 || c.Rate < 0 {
				return nil, fmt.Errorf("live: window %d: counter %s: negative delta %d or rate %v", s.Window, c.Name, c.Delta, c.Rate)
			}
			totals[c.Name] += c.Delta
			if c.Total != totals[c.Name] {
				return nil, fmt.Errorf("live: window %d: counter %s: total %d, want running sum %d", s.Window, c.Name, c.Total, totals[c.Name])
			}
		}
		for _, h := range s.Hists {
			var n int64
			for _, b := range h.Buckets {
				if b.Idx < 0 || b.Idx >= histBuckets || b.N <= 0 {
					return nil, fmt.Errorf("live: window %d: hist %s: bad bucket {%d %d}", s.Window, h.Name, b.Idx, b.N)
				}
				n += b.N
			}
			if n != h.Count {
				return nil, fmt.Errorf("live: window %d: hist %s: bucket counts sum %d, want count %d", s.Window, h.Name, n, h.Count)
			}
			lo, hi := float64(h.Min), float64(h.Max)
			for _, q := range []struct {
				name string
				v    float64
			}{{"p50", h.P50}, {"p90", h.P90}, {"p99", h.P99}} {
				if q.v < lo || q.v > hi {
					return nil, fmt.Errorf("live: window %d: hist %s: %s=%v outside observed [%v, %v]", s.Window, h.Name, q.name, q.v, lo, hi)
				}
			}
			if h.P50 > h.P90 || h.P90 > h.P99 {
				return nil, fmt.Errorf("live: window %d: hist %s: quantiles not ordered (p50=%v p90=%v p99=%v)", s.Window, h.Name, h.P50, h.P90, h.P99)
			}
		}
		snaps = append(snaps, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snaps, nil
}
