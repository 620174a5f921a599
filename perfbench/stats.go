package main

import (
	"sort"
	"sync"
	"time"
)

// samples is a concurrency-safe list of durations.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// snapshot returns a sorted copy.
func (s *samples) snapshot() []time.Duration {
	s.mu.Lock()
	out := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantileMS is the q-quantile of sorted durations in milliseconds,
// interpolating linearly between ranks; 0 for no samples.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return ms(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return ms(sorted[lo]) + frac*(ms(sorted[lo+1])-ms(sorted[lo]))
}

func meanMS(d []time.Duration) float64 {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return ms(sum) / float64(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
