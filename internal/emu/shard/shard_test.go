package shard

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refSum computes the correctly rounded sum of xs through math/big at 400
// bits — wide enough that every partial sum of the test inputs is exact —
// as the oracle for the expansion arithmetic.
func refSum(xs []float64) float64 {
	acc := new(big.Float).SetPrec(400)
	term := new(big.Float).SetPrec(400)
	for _, x := range xs {
		acc.Add(acc, term.SetFloat64(x))
	}
	out, _ := acc.Float64()
	return out
}

// testVectors draws n gradient-shaped vectors of the given dim: mixed signs
// and several magnitude decades, the regime where naive summation visibly
// loses associativity.
func testVectors(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		out[i] = v
	}
	return out
}

func TestRoundMatchesBigFloatReference(t *testing.T) {
	vecs := testVectors(37, 53, 1)
	acc := New(53)
	for _, v := range vecs {
		acc.Add(v)
	}
	got := acc.Round(nil)
	for j := range got {
		col := make([]float64, len(vecs))
		for i, v := range vecs {
			col[i] = v[j]
		}
		want := refSum(col)
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("coordinate %d: Round = %x, big.Float reference = %x", j, got[j], want)
		}
	}
}

func TestRoundHandlesCancellation(t *testing.T) {
	// Catastrophic cancellation plus a tiny survivor: naive summation
	// returns 0 or loses the survivor; the exact expansion keeps it.
	acc := New(1)
	inputs := []float64{1e16, 1e-3, -1e16, 1e-3}
	for _, x := range inputs {
		acc.Add([]float64{x})
	}
	got := acc.Round(nil)[0]
	if want := refSum(inputs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cancellation sum = %g (%x), want %g (%x)", got, got, want, want)
	}
}

// TestGroupingInvariance is the tree-determinism contract: summing the same
// vectors through 1, 3, or 8 intermediate accumulators merged in any order
// must round to identical bits.
func TestGroupingInvariance(t *testing.T) {
	const n, dim = 64, 101
	vecs := testVectors(n, dim, 2)

	flat := New(dim)
	for _, v := range vecs {
		flat.Add(v)
	}
	want := flat.Round(nil)

	for _, shards := range []int{1, 2, 3, 8, 63} {
		ranges := Split(n, shards)
		parts := make([]*Accumulator, shards)
		for i, r := range ranges {
			parts[i] = New(dim)
			for _, v := range vecs[r.Lo:r.Hi] {
				parts[i].Add(v)
			}
		}
		// Merge in reverse shard order on purpose: grouping AND merge
		// order must both be invisible.
		root := New(dim)
		for i := shards - 1; i >= 0; i-- {
			root.Merge(parts[i])
		}
		got := root.Round(nil)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("shards=%d coordinate %d: %x != flat %x", shards, j, got[j], want[j])
			}
		}
	}
}

// TestMaxTermsStaysFlat pins the memory model: folding 64 gradient-scale
// clients into one accumulator keeps the per-coordinate expansion in the
// single digits — per-shard memory does not grow with the client count the
// way buffering every delta would.
func TestMaxTermsStaysFlat(t *testing.T) {
	const dim = 101
	acc := New(dim)
	for _, v := range testVectors(64, dim, 3) {
		acc.Add(v)
	}
	if got := acc.MaxTerms(); got > 16 {
		t.Fatalf("MaxTerms = %d after 64 clients, want <= 16 (memory should stay flat)", got)
	}
}

// TestExactAddsKeepTermCount pins that a zero error term is dropped, not
// stored: adding 1 to the two-term expansion 1 + 2^-70 is exact, so the
// expansion stays at two terms however often it happens.
func TestExactAddsKeepTermCount(t *testing.T) {
	inputs := []float64{math.Ldexp(1, -70)}
	for range 20 {
		inputs = append(inputs, 1)
	}
	acc := New(1)
	for _, x := range inputs {
		acc.Add([]float64{x})
	}
	if got := acc.MaxTerms(); got != 2 {
		t.Fatalf("MaxTerms = %d after exact adds, want 2", got)
	}
	if got, want := acc.Round(nil)[0], refSum(inputs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Round = %x, big.Float reference = %x", got, want)
	}
}

func TestResetReusesCapacityAndClears(t *testing.T) {
	acc := New(4)
	acc.Add([]float64{1, 2, 3, 4})
	acc.Reset(4)
	got := acc.Round(nil)
	for j, v := range got {
		if v != 0 {
			t.Fatalf("after Reset, coordinate %d = %g, want 0", j, v)
		}
	}
	acc.Reset(2)
	if acc.Dim() != 2 {
		t.Fatalf("Dim after Reset(2) = %d", acc.Dim())
	}
	acc.Add([]float64{5, 6})
	if got := acc.Round(nil); got[0] != 5 || got[1] != 6 {
		t.Fatalf("post-shrink Round = %v", got)
	}
}

func TestSplit(t *testing.T) {
	cases := []struct{ n, k int }{{1, 1}, {3, 3}, {8, 3}, {64, 8}, {7, 2}, {100, 9}}
	for _, c := range cases {
		ranges := Split(c.n, c.k)
		if len(ranges) != c.k {
			t.Fatalf("Split(%d,%d): %d ranges", c.n, c.k, len(ranges))
		}
		lo, min, max := 0, c.n, 0
		for _, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("Split(%d,%d): range %v not contiguous from %d", c.n, c.k, r, lo)
			}
			if r.Len() <= 0 {
				t.Fatalf("Split(%d,%d): empty range %v", c.n, c.k, r)
			}
			if r.Len() < min {
				min = r.Len()
			}
			if r.Len() > max {
				max = r.Len()
			}
			lo = r.Hi
		}
		if lo != c.n {
			t.Fatalf("Split(%d,%d): covers [0,%d)", c.n, c.k, lo)
		}
		if max-min > 1 {
			t.Fatalf("Split(%d,%d): unbalanced sizes (min %d, max %d)", c.n, c.k, min, max)
		}
	}
}

func TestSplitPanicsOutOfRange(t *testing.T) {
	for _, c := range []struct{ n, k int }{{3, 0}, {3, 4}, {0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%d,%d) did not panic", c.n, c.k)
				}
			}()
			Split(c.n, c.k)
		}()
	}
}

// quantize8Vectors draws n vectors shaped like quantize8 payloads after
// decoding: each value is lo + q/255·(hi-lo) for a byte q over the vector's
// own range, the values emu's server folds when clients send quantize8.
func quantize8Vectors(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		lo := -rng.Float64() * 0.1
		scale := rng.Float64()*0.1 - lo
		v := make([]float64, dim)
		for j := range v {
			v[j] = lo + float64(rng.Intn(256))/255*scale
		}
		out[i] = v
	}
	return out
}

// spillVectors draws n vectors whose even coordinates outgrow the inline
// planes: alternating-sign values m·2^e with e spread over 300 exponents,
// too far apart to merge into few terms. Odd coordinates stay
// gradient-scale, so inline and spilled coordinates share every Add. All
// bits sit within 400 of each other, so refSum stays exact.
func spillVectors(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			if j%2 == 1 {
				v[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
				continue
			}
			x := math.Ldexp(1+rng.Float64(), rng.Intn(301)-150)
			if (i+j/2)%2 == 1 {
				x = -x
			}
			v[j] = x
		}
		out[i] = v
	}
	return out
}

// assertMatchesReference checks every coordinate of got against the
// big.Float sum of the same coordinate across vecs.
func assertMatchesReference(t *testing.T, label string, got []float64, vecs [][]float64) {
	t.Helper()
	col := make([]float64, len(vecs))
	for j := range got {
		for i, v := range vecs {
			col[i] = v[j]
		}
		if want := refSum(col); math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("%s: coordinate %d: Round = %x, big.Float reference = %x", label, j, got[j], want)
		}
	}
}

func TestSpilledCoordinatesMatchBigFloatReference(t *testing.T) {
	vecs := spillVectors(40, 57, 5)
	acc := New(57)
	for _, v := range vecs {
		acc.Add(v)
	}
	if acc.MaxTerms() <= inlineTerms {
		t.Fatalf("MaxTerms = %d, want > %d: the inputs should spill", acc.MaxTerms(), inlineTerms)
	}
	assertMatchesReference(t, "spilled", acc.Round(nil), vecs)
}

// TestGroupingInvarianceSpilled reruns TestGroupingInvariance's layouts on
// inputs that spill, so merges read and write spilled coordinates on both
// sides.
func TestGroupingInvarianceSpilled(t *testing.T) {
	const n, dim = 64, 41
	vecs := spillVectors(n, dim, 6)
	for _, shards := range []int{1, 2, 3, 8, 63} {
		ranges := Split(n, shards)
		parts := make([]*Accumulator, shards)
		for i, r := range ranges {
			parts[i] = New(dim)
			for _, v := range vecs[r.Lo:r.Hi] {
				parts[i].Add(v)
			}
		}
		root := New(dim)
		for i := shards - 1; i >= 0; i-- {
			root.Merge(parts[i])
		}
		if root.MaxTerms() <= inlineTerms {
			t.Fatalf("shards=%d: root MaxTerms = %d, want a spill", shards, root.MaxTerms())
		}
		assertMatchesReference(t, fmt.Sprintf("shards=%d", shards), root.Round(nil), vecs)
	}
}

func TestResetToLargerDimAfterPlanesExist(t *testing.T) {
	acc := New(6)
	for _, v := range spillVectors(12, 6, 7) {
		acc.Add(v)
	}
	const dim = 300
	vecs := spillVectors(20, dim, 8)
	acc.Reset(dim)
	for _, v := range vecs {
		acc.Add(v)
	}
	assertMatchesReference(t, "after Reset(300)", acc.Round(nil), vecs)
}

func TestResetClearsSpill(t *testing.T) {
	acc := New(4)
	for _, v := range spillVectors(16, 4, 9) {
		acc.Add(v)
	}
	if acc.MaxTerms() <= inlineTerms {
		t.Fatalf("MaxTerms = %d, want a spill before Reset", acc.MaxTerms())
	}
	acc.Reset(4)
	acc.Add([]float64{0.5, 0, -3, 0})
	got := acc.Round(nil)
	for j, want := range []float64{0.5, 0, -3, 0} {
		if math.Float64bits(got[j]) != math.Float64bits(want) {
			t.Fatalf("after Reset, coordinate %d = %g, want %g", j, got[j], want)
		}
	}
}

// TestSignedZero pins the sign of zero sums: a coordinate that only ever
// received -0 rounds to -0, through Add and through Merge, and a coordinate
// that received nothing rounds to +0.
func TestSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a, b := New(2), New(2)
	for range 3 {
		a.Add([]float64{negZero, negZero})
		b.Add([]float64{negZero, 0})
	}
	root := New(2)
	root.Merge(a)
	root.Merge(b)
	for _, c := range []struct {
		label string
		got   float64
		want  float64
	}{
		{"Add of -0", a.Round(nil)[0], negZero},
		{"Merge of -0", root.Round(nil)[0], negZero},
		{"-0 plus +0", root.Round(nil)[1], 0},
		{"empty", New(1).Round(nil)[0], 0},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s: Round = %x, want %x", c.label, math.Float64bits(c.got), math.Float64bits(c.want))
		}
	}
}

// TestZeroInputsOnWideCoordinates adds ±0 vectors between the updates of
// multi-term and spilled coordinates, through Add and through Merge, and
// checks Round's bits against the big.Float reference of the same inputs.
func TestZeroInputsOnWideCoordinates(t *testing.T) {
	const dim = 41
	negZero := math.Copysign(0, -1)
	zeros := make([]float64, dim)
	negZeros := make([]float64, dim)
	mixed := make([]float64, dim)
	for j := range dim {
		negZeros[j] = negZero
		if j%3 == 0 {
			mixed[j] = negZero
		}
	}
	for name, vecs := range map[string][][]float64{
		"multi-term": testVectors(24, dim, 12),
		"spilled":    spillVectors(24, dim, 13),
	} {
		var all [][]float64
		flat, parts := New(dim), []*Accumulator{New(dim), New(dim)}
		for i, v := range vecs {
			for _, in := range [][]float64{v, zeros, negZeros, mixed} {
				all = append(all, in)
				flat.Add(in)
				parts[i%2].Add(in)
			}
		}
		if name == "spilled" && flat.MaxTerms() <= inlineTerms {
			t.Fatalf("MaxTerms = %d, want > %d: the inputs should spill", flat.MaxTerms(), inlineTerms)
		}
		if name == "multi-term" && flat.MaxTerms() < 2 {
			t.Fatalf("MaxTerms = %d, want >= 2: the inputs should need several terms", flat.MaxTerms())
		}
		assertMatchesReference(t, name+" Add", flat.Round(nil), all)
		// A part that folded only zeros holds a ±0 term per coordinate.
		zeroPart := New(dim)
		zeroPart.Add(negZeros)
		zeroPart.Add(mixed)
		root := New(dim)
		root.Merge(parts[0])
		root.Merge(zeroPart)
		root.Merge(parts[1])
		root.Merge(zeroPart)
		assertMatchesReference(t, name+" Merge", root.Round(nil), all)
	}
}

// TestSteadyStateAllocatesNothing pins the reuse contract: after one
// warm-up round, a full Reset → Add → Merge → Round cycle through two
// shard accumulators and a root allocates nothing, both for two-term
// quantize8 data and for data that spills.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const dim = 1000
	for name, vecs := range map[string][][]float64{
		"quantize8": quantize8Vectors(4, dim, 10),
		"spilled":   spillVectors(16, dim, 11),
	} {
		parts := []*Accumulator{New(dim), New(dim)}
		root := New(dim)
		dst := make([]float64, dim)
		half := len(vecs) / 2
		round := func() {
			for i, acc := range parts {
				acc.Reset(dim)
				for _, v := range vecs[i*half : (i+1)*half] {
					acc.Add(v)
				}
			}
			root.Reset(dim)
			for _, acc := range parts {
				root.Merge(acc)
			}
			dst = root.Round(dst)
		}
		round()
		if name == "spilled" && root.MaxTerms() <= inlineTerms {
			t.Fatalf("spilled: warm-up MaxTerms = %d, want a spill", root.MaxTerms())
		}
		if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state round, want 0", name, allocs)
		}
	}
}

// BenchmarkShardMerge is the tree's root-side hot path: 8 shard
// accumulators, each having folded 8 clients of a 100k-dim model, merged
// and rounded. One warm-up round before the timer lets the reported
// allocs/op measure the steady state, where every plane and spill is
// reused.
func BenchmarkShardMerge(b *testing.B) {
	const shards, clientsPerShard, dim = 8, 8, 100_000
	vecs := testVectors(shards*clientsPerShard, dim, 4)
	parts := make([]*Accumulator, shards)
	for i := range parts {
		parts[i] = New(dim)
	}
	root := New(dim)
	dst := make([]float64, dim)
	round := func() {
		for i, acc := range parts {
			acc.Reset(dim)
			for c := 0; c < clientsPerShard; c++ {
				acc.Add(vecs[i*clientsPerShard+c])
			}
		}
		root.Reset(dim)
		for _, acc := range parts {
			root.Merge(acc)
		}
		dst = root.Round(dst)
	}

	round()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		round()
	}
	if dst[0] == math.Inf(1) {
		b.Fatal("unreachable; keeps dst live")
	}
}

// BenchmarkShardFoldWide is the emu-wide workload's fold: 2 shards of one
// client each adding one quantize8-valued 100k vector, then the root's
// Reset, Merge and Round. "round" times all of it; "add" times the shard
// side alone and "plain-add" the same vectors folded with dst[j] += v[j],
// the floor the exact Add is measured against.
func BenchmarkShardFoldWide(b *testing.B) {
	const shards, dim = 2, 100_000
	vecs := quantize8Vectors(shards, dim, 12)
	parts := make([]*Accumulator, shards)
	for i := range parts {
		parts[i] = New(dim)
	}
	root := New(dim)
	dst := make([]float64, dim)
	add := func() {
		for i, acc := range parts {
			acc.Reset(dim)
			acc.Add(vecs[i])
		}
	}
	round := func() {
		add()
		root.Reset(dim)
		for _, acc := range parts {
			root.Merge(acc)
		}
		dst = root.Round(dst)
	}
	plain := func() {
		for _, v := range vecs {
			clear(dst)
			for j, x := range v {
				dst[j] += x
			}
		}
	}
	for _, bc := range []struct {
		name string
		fn   func()
	}{{"round", round}, {"add", add}, {"plain-add", plain}} {
		b.Run(bc.name, func(b *testing.B) {
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				bc.fn()
			}
		})
	}
	if dst[0] == math.Inf(1) {
		b.Fatal("unreachable; keeps dst live")
	}
}
