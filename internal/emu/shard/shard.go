// Package shard provides the numeric core of the emulator's two-tier
// aggregation tree: an exactly-rounded floating-point accumulator whose
// result is independent of how its inputs were grouped across shard
// aggregators, plus the contiguous client-partition helper.
//
// Floating-point addition is not associative, so naive per-shard partial
// sums merged at the root would drift bitwise from a flat server's
// sequential sum — and from each other as the shard count changes. The
// Accumulator sidesteps the problem entirely: each coordinate's running sum
// is kept as a non-overlapping expansion of floats whose total is EXACT
// (Shewchuk's grow-expansion, the same machinery behind Python's
// math.fsum), and Round returns the correctly rounded float64 of that exact
// value. The correctly rounded value of an exact sum is unique, so any
// grouping of the same update multiset — one shard or eight, merged in any
// order — rounds to identical bits. That is the determinism argument that
// lets `Shards: N` reproduce the flat server's FinalParams bit-for-bit
// under the chaos suite.
//
// Memory: an expansion holds one term per distinct "magnitude band" still
// carrying information, not one term per input, so a shard folding each
// accepted update into its accumulator as it arrives needs O(dim · terms)
// floats with terms staying small — flat in the client count, unlike
// buffering every client's delta. The terms live in planes: plane k holds
// every coordinate's k-th term in one flat []float64, a []uint8 holds each
// coordinate's term count, and plane k is allocated only once some
// coordinate needs k+1 terms. A coordinate that outgrows the inline planes
// spills to its own slice. Reset keeps the planes and every spill's
// capacity, so a reused accumulator stops allocating after its first round.
package shard

import "math"

// inlineTerms is the number of term planes an accumulator can allocate;
// a coordinate with more terms spills. Sums of two quantize8 payloads need
// two terms. In BenchmarkShardMerge's gradient-scale shards of 8 clients,
// about one coordinate in six spills at four planes, and 6 or 8 planes run
// no faster.
const inlineTerms = 4

// spilled marks a coordinate whose expansion lives in the spill slices.
const spilled = math.MaxUint8

// Accumulator sums float64 vectors exactly. The zero value is unusable;
// call New (or Reset on a reused value).
//
// Not safe for concurrent use: in the aggregation tree each shard owns one
// accumulator and the root merges them single-threaded.
type Accumulator struct {
	dim int
	// Coordinate j's non-overlapping expansion, ordered by increasing
	// magnitude, is planes[0][j], …, planes[n[j]-1][j], or spill[j] when
	// n[j] == spilled. Its exact real sum equals the exact sum of every
	// value added to coordinate j since the last Reset.
	n      []uint8
	planes [][]float64 // len ≤ inlineTerms; each plane has length dim
	spill  [][]float64 // nil until the first spill; then length dim
	// maxSpill is the widest spilled expansion ever observed (across
	// Resets); with len(planes) it gives MaxTerms.
	maxSpill int
}

// New returns an empty accumulator for dim-dimensional vectors.
func New(dim int) *Accumulator {
	a := &Accumulator{}
	a.Reset(dim)
	return a
}

// Reset empties the accumulator and sets its dimension, retaining the
// planes and spill capacity so steady-state reuse does not allocate.
func (a *Accumulator) Reset(dim int) {
	a.n = resize(a.n, dim)
	clear(a.n)
	for k, p := range a.planes {
		a.planes[k] = resize(p, dim)
	}
	if a.spill != nil {
		a.spill = resize(a.spill, dim)
	}
	a.dim = dim
}

// resize returns s with length n, copying it into a new array (so retained
// capacities survive) when its capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// Dim returns the accumulator's vector dimension.
func (a *Accumulator) Dim() int { return a.dim }

// MaxTerms returns the largest per-coordinate expansion length observed so
// far (across Resets) — the memory high-water mark in floats per
// coordinate: the planes allocated, or the widest spill if wider.
func (a *Accumulator) MaxTerms() int { return max(len(a.planes), a.maxSpill) }

// Add folds one vector into the running exact sum. len(vec) must equal Dim.
func (a *Accumulator) Add(vec []float64) {
	if len(vec) != a.dim {
		panic("shard: Add dimension mismatch")
	}
	a.fold(vec, nil)
}

// Merge folds another accumulator's exact sum into this one. Every term of
// an expansion is an ordinary float64 whose re-insertion is exact, so the
// merged accumulator represents precisely the union of both input
// multisets — grouping leaves no trace.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.dim != a.dim {
		panic("shard: Merge dimension mismatch")
	}
	if len(b.planes) == 0 {
		return
	}
	// Each coordinate's terms go in increasing order: b's plane 0 first,
	// then the rest of its wider coordinates.
	a.fold(b.planes[0], b.n)
	if len(b.planes) == 1 && b.spill == nil {
		return
	}
	for j, m := range b.n {
		switch {
		case m == spilled:
			for _, x := range b.spill[j] {
				a.add1(j, x)
			}
		case m > 1:
			for k := 1; k < int(m); k++ {
				a.add1(j, b.planes[k][j])
			}
		}
	}
}

// fold adds xs[j] to every coordinate j, skipping those where counts (the
// source's term counts in a Merge, nil in an Add) says xs[j] is not a
// term. It is add1 over a whole plane, with an empty coordinate's store
// and a one-term coordinate's TwoSum written out inline.
func (a *Accumulator) fold(xs []float64, counts []uint8) {
	if len(xs) == 0 {
		return
	}
	n := a.n[:len(xs)]
	p0 := a.plane(0)[:len(xs)]
	var p1 []float64
	if len(a.planes) > 1 {
		p1 = a.planes[1][:len(xs)]
	}
	for j, x := range xs {
		if counts != nil && (counts[j] == 0 || counts[j] == spilled) {
			continue
		}
		switch n[j] {
		case 0:
			p0[j] = x
			n[j] = 1
		case 1:
			// TwoSum leaves lo and hi, or hi alone when lo is ±0. Once
			// plane 1 exists, store hi there, lo-or-hi in plane 0, and
			// let the count say which: no branch on lo.
			hi, lo := twoSum(p0[j], x)
			if p1 == nil {
				if !nonzero(lo) {
					p0[j] = hi
					continue
				}
				p1 = a.plane(1)[:len(xs)]
			}
			nz := nonzeroBit(lo)
			hb, lb := math.Float64bits(hi), math.Float64bits(lo)
			p0[j] = math.Float64frombits(hb ^ (hb^lb)&-nz)
			p1[j] = hi
			n[j] = 1 + uint8(nz)
		default:
			// The expansion already holds a nonzero term, so a ±0 input
			// changes neither the exact sum nor Round's bits: skip it.
			if nonzero(x) {
				a.add1(j, x)
			}
		}
	}
}

// add1 folds x into coordinate j: growExpansion's TwoSum cascade run in
// place down the planes, every lo stored and kept only if nonzero, with no
// branch on lo. A coordinate whose result outgrows the planes spills, and
// stays spilled until Reset.
func (a *Accumulator) add1(j int, x float64) {
	m := a.n[j]
	if m == spilled {
		p := growExpansion(a.spill[j], x)
		a.spill[j] = p
		a.maxSpill = max(a.maxSpill, len(p))
		return
	}
	planes := a.planes[:m]
	i := 0
	for _, pk := range planes {
		hi, lo := twoSum(x, pk[j])
		planes[i][j] = lo
		i += int(nonzeroBit(lo))
		x = hi
	}
	if i < inlineTerms {
		a.plane(i)[j] = x
		a.n[j] = uint8(i + 1)
		return
	}
	if a.spill == nil {
		a.spill = make([][]float64, a.dim)
	}
	p := append(a.gather(a.spill[j][:0], j, inlineTerms), x)
	a.spill[j] = p
	a.maxSpill = max(a.maxSpill, len(p))
	a.n[j] = spilled
}

// gather appends coordinate j's m inline terms to p.
func (a *Accumulator) gather(p []float64, j, m int) []float64 {
	for k := range m {
		p = append(p, a.planes[k][j])
	}
	return p
}

// plane returns plane k, allocating it (and any plane below it) on first
// use.
func (a *Accumulator) plane(k int) []float64 {
	for len(a.planes) <= k {
		a.planes = append(a.planes, make([]float64, a.dim))
	}
	return a.planes[k]
}

// twoSum returns hi = fl(x+y) and lo, the exact error x+y-hi (Knuth's
// branch-free TwoSum, valid whatever the operands' magnitudes).
func twoSum(x, y float64) (hi, lo float64) {
	hi = x + y
	yv := hi - x
	lo = (x - (hi - yv)) + (y - yv)
	return hi, lo
}

// nonzero reports whether x is not ±0, compared on bits: exact-zero tests
// are the point of this algorithm, and bit tests keep them out of float-eq
// lint territory while treating -0 like 0.
func nonzero(x float64) bool { return math.Float64bits(x)<<1 != 0 }

// nonzeroBit is nonzero as 1 or 0, computed without a branch: b | -b has
// its top bit set exactly when b is not 0.
func nonzeroBit(x float64) uint64 {
	b := math.Float64bits(x) << 1
	return (b | -b) >> 63
}

// growExpansion folds x into a non-overlapping expansion: the TwoSum
// cascade keeps the invariant that the expansion's exact real sum is
// unchanged while its terms stay non-overlapping in increasing magnitude
// order.
func growExpansion(p []float64, x float64) []float64 {
	i := 0
	for _, y := range p {
		hi, lo := twoSum(x, y)
		if nonzero(lo) {
			p[i] = lo
			i++
		}
		x = hi
	}
	return append(p[:i], x)
}

// Round writes the correctly rounded float64 value of each coordinate's
// exact sum into dst (grown as needed) and returns it. An empty coordinate
// rounds to +0. The accumulator is left untouched, so Round may be called
// repeatedly and Merge may continue afterwards. Up to two terms, one IEEE
// addition of the non-overlapping terms is already correctly rounded.
func (a *Accumulator) Round(dst []float64) []float64 {
	if cap(dst) < a.dim {
		dst = make([]float64, a.dim)
	}
	dst = dst[:a.dim]
	var p0, p1 []float64
	if len(a.planes) > 0 {
		p0 = a.planes[0][:a.dim]
		p1 = p0
	}
	if len(a.planes) > 1 {
		p1 = a.planes[1][:a.dim]
	}
	const negZero = 1 << 63
	for j, m := range a.n {
		switch m {
		case 0:
			dst[j] = 0
		case 1, 2:
			// p1 + p0, with p1 swapped for -0 (the identity of IEEE
			// addition) when there is no second term: no branch on the
			// term count.
			keep := -uint64(m >> 1)
			hi := math.Float64bits(p1[j])&keep | negZero&^keep
			dst[j] = math.Float64frombits(hi) + p0[j]
		case spilled:
			dst[j] = roundExpansion(a.spill[j])
		default:
			var buf [inlineTerms]float64
			dst[j] = roundExpansion(a.gather(buf[:0], j, int(m)))
		}
	}
	return dst
}

// roundExpansion returns the correctly rounded (nearest-even) float64 of a
// non-overlapping increasing-magnitude expansion: sum from the largest term
// down until the addition goes inexact, then apply the half-even correction
// against the next lower term (the lsparts of math.fsum's final rounding).
func roundExpansion(p []float64) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi := p[n]
	var lo float64
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if nonzero(lo) {
			break
		}
	}
	// Half-way case: the discarded lo sits exactly between hi and its
	// neighbour; a remaining smaller term of the same sign tips it over.
	if n > 0 && ((lo < 0 && p[n-1] < 0) || (lo > 0 && p[n-1] > 0)) {
		y := lo * 2
		x := hi + y
		yr := x - hi
		if math.Float64bits(y) == math.Float64bits(yr) {
			hi = x
		}
	}
	return hi
}

// Range is one shard's contiguous half-open client interval.
type Range struct{ Lo, Hi int }

// Len returns the number of clients in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions n clients into k contiguous balanced ranges: the first
// n%k ranges carry one extra client. k must be in [1, n]; every range is
// non-empty so each shard aggregator owns at least one client.
func Split(n, k int) []Range {
	if k < 1 || k > n {
		panic("shard: Split wants 1 <= k <= n")
	}
	out := make([]Range, k)
	size, rem := n/k, n%k
	lo := 0
	for i := range out {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}
