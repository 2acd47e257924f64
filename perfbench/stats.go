package main

import (
	"sort"
	"time"
)

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, with that percentile; below eleven samples it
// returns the maximum and 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 100
	}
	s := sortedCopy(xs)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is num/den, or 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hitKey is one hit in member coordinates: the form both the system
// under test and the references are reduced to before comparison.
type hitKey struct {
	member     string
	tEnd, qEnd int
	score      int
}

// digest is a multiset hash of a hit set: the count and the sum of the
// hits' hashes. It is order-free, so neither side of a comparison sorts
// or copies its hits (the checking itself adds little garbage to the
// process it measures), and a changed, missing or extra hit changes it.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(member string, tEnd, qEnd, score int) {
	h := uint64(14695981039346656037) // FNV-1a of the member name
	for i := 0; i < len(member); i++ {
		h = (h ^ uint64(member[i])) * 1099511628211
	}
	for _, v := range [3]int{tEnd, qEnd, score} {
		h = mix64(h ^ uint64(v))
	}
	d.n++
	d.sum += h
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func digestKeys(hits []hitKey) digest {
	var d digest
	for _, k := range hits {
		d.add(k.member, k.tEnd, k.qEnd, k.score)
	}
	return d
}
