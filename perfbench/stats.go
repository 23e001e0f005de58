package main

import (
	"math"
	"sort"
	"time"
)

// sample collects durations of one operation class.
type sample []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) in
// milliseconds, or 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(sample(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(math.Ceil(q*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return ms(c[k])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

// metric is one reported number with its unit and the count it rests on.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// metrics keeps reported numbers in insertion order.
type metrics struct{ list []metric }

func (m *metrics) add(name string, v float64, unit string, n int) {
	m.list = append(m.list, metric{Name: name, Value: v, Unit: unit, Samples: n})
}

// series is one class's latencies split into consecutive measurement
// windows by intended send time.
type series []sample

// add files d under window w.
func (s *series) add(w int, d time.Duration) {
	for len(*s) <= w {
		*s = append(*s, nil)
	}
	(*s)[w] = append((*s)[w], d)
}

// quantile is the median over windows of each window's q-quantile, in
// milliseconds: a stall confined to one window (another tenant's burst on
// a shared host) moves it by one rank, not by its own size.
func (s series) quantile(q float64) float64 {
	var xs []float64
	for _, w := range s {
		if len(w) > 0 {
			xs = append(xs, w.quantile(q))
		}
	}
	return median(xs)
}

func (s series) count() int {
	n := 0
	for _, w := range s {
		n += len(w)
	}
	return n
}

// latency reports the median and p99 of s under prefix, when s is not empty.
func (m *metrics) latency(prefix string, s series) {
	n := s.count()
	if n == 0 {
		return
	}
	m.add(prefix+"_p50_ms", s.quantile(0.5), "ms", n)
	m.add(prefix+"_p99_ms", s.quantile(0.99), "ms", n)
}

func (m *metrics) get(name string) (metric, bool) {
	for _, x := range m.list {
		if x.Name == name {
			return x, true
		}
	}
	return metric{}, false
}
