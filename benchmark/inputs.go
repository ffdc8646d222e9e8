package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// rng is splitmix64: every workload input is a pure function of the seed
// and a stream name, so one seed reproduces one set of inputs and two
// workloads never share a sequence.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int                 { return int(r.next() % uint64(n)) }
func (r *rng) float() float64                 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// shuffled returns a seed-ordered copy of xs (Fisher-Yates).
func shuffled[T any](r *rng, xs []T) []T {
	out := append([]T(nil), xs...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// zipf draws ranks in [0,n) with popularity ∝ 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	t := 0.0
	for i := range cdf {
		t += 1 / math.Pow(float64(i+1), s)
		cdf[i] = t
	}
	for i := range cdf {
		cdf[i] /= t
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	i := sort.SearchFloat64s(z.cdf, r.float())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// thin keeps n evenly spaced elements of xs (all of them when n >= len).
func thin[T any](xs []T, n int) []T {
	if n >= len(xs) {
		return xs
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

// sortedKeys lists a map's keys in order, for digests that must not depend
// on map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
