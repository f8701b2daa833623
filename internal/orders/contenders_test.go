package orders

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"ballarus/internal/core"
)

// halfSum adds row's entries for the benches set in m (bits relative to
// base) the way buildHalf does: from the highest bench down to the lowest.
func halfSum(row []float64, m, base, width int) float64 {
	sum := 0.0
	for b := width - 1; b >= 0; b-- {
		if m>>b&1 != 0 {
			sum += row[base+b]
		}
	}
	return sum
}

// fullScanRange is the unpruned reference for SubsetScorer.Range: every
// k-subset whose low-half mask lies in [lo, hi) is scored against every
// order, each sum built as low half + high half in buildHalf's addition
// sequence, with ties to the lower index.
func fullScanRange(s *Sweep, k, lo, hi int) *SubsetResult {
	loBits := len(s.Benches) / 2
	hiBits := len(s.Benches) - loBits
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	for lm := lo; lm < hi; lm++ {
		for hm := 0; hm < 1<<hiBits; hm++ {
			if bits.OnesCount(uint(lm))+bits.OnesCount(uint(hm)) != k {
				continue
			}
			best, bv := 0, 0.0
			for o, row := range s.M {
				v := halfSum(row, lm, 0, loBits) + halfSum(row, hm, loBits, hiBits)
				if o == 0 || v < bv {
					best, bv = o, v
				}
			}
			res.BestCount[best]++
			res.Trials++
		}
	}
	return res
}

// fullScanSampled is the unpruned reference for SubsetsSampledOpts: the
// same rng stream, every order scanned.
func fullScanSampled(s *Sweep, k, trials int, seed int64) *SubsetResult {
	n := len(s.Benches)
	rng := rand.New(rand.NewSource(seed))
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < trials; t++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		best, bv := 0, math.Inf(1)
		for o, row := range s.M {
			sum := 0.0
			for _, b := range idx[:k] {
				sum += row[b]
			}
			if sum < bv {
				best, bv = o, sum
			}
		}
		res.BestCount[best]++
		res.Trials++
	}
	return res
}

// matrixSweep wraps a raw miss matrix as a Sweep; the scorers read only
// M and the lengths of Orders and Benches.
func matrixSweep(m [][]float64, nBenches int) *Sweep {
	return &Sweep{
		Orders:  make([]core.Order, len(m)),
		Benches: make([]*BenchData, nBenches),
		M:       m,
	}
}

// chosen maps each chosen order to its trial count, and key -1 to the
// trial total, so results compare equal whatever BestCount's length
// (MergeSubsetResults always returns NumOrders entries; the sampled run
// and Range return len(Orders)).
func chosen(r *SubsetResult) map[int]int {
	m := map[int]int{-1: r.Trials}
	for o, c := range r.BestCount {
		if c != 0 {
			m[o] = c
		}
	}
	return m
}

// checkAgainstFullScan asserts that the pruned exact, Range-merged and
// sampled runs reproduce the full-scan reference exactly.
func checkAgainstFullScan(t *testing.T, s *Sweep, k int, cuts []int, trials int, seed int64) {
	t.Helper()
	ctx := context.Background()
	want := fullScanRange(s, k, 0, 1<<(len(s.Benches)/2))
	got, err := s.SubsetsCtx(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chosen(got), chosen(want)) {
		t.Fatalf("k=%d exact: pruned %v, full scan %v", k, chosen(got), chosen(want))
	}
	sc, err := s.NewSubsetScorer(k)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*SubsetResult
	lo := 0
	for _, hi := range append(cuts, sc.LowMasks()) {
		hi = min(max(hi, lo), sc.LowMasks())
		p, err := sc.Range(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
		lo = hi
	}
	if merged := MergeSubsetResults(parts...); !reflect.DeepEqual(chosen(merged), chosen(want)) {
		t.Fatalf("k=%d ranges %v: merged %v, full scan %v", k, cuts, chosen(merged), chosen(want))
	}
	wantS := fullScanSampled(s, k, trials, seed)
	gotS, err := s.SubsetsSampledCtx(ctx, k, trials, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(chosen(gotS), chosen(wantS)) {
		t.Fatalf("k=%d sampled seed %d: pruned %v, full scan %v", k, seed, chosen(gotS), chosen(wantS))
	}
}

func TestContendersMatchFullScanShardBenches(t *testing.T) {
	s := mustSweep(t, shardTestBenches(8))
	t.Logf("%d of %d orders are contenders", len(s.contenders()), NumOrders)
	for k := 0; k <= 8; k++ {
		checkAgainstFullScan(t, s, k, []int{3, 4, 9}, 500, int64(k))
	}
}

// TestContendersTiesGoToLowerIndex pins the tie rule on a matrix with a
// duplicate row, a dominated row and rows whose subset sums tie exactly.
func TestContendersTiesGoToLowerIndex(t *testing.T) {
	s := matrixSweep([][]float64{
		{3, 3, 3},     // 0: always kept, never best
		{1, 2, 3},     // 1
		{2, 1, 3},     // 2: ties 1 on the full set
		{1, 2, 3},     // 3: duplicate of 1
		{3, 2, 1},     // 4: ties 1 on the full set
		{1, 2, 3.5},   // 5: dominated by 1
		{0.1, 0.2, 6}, // 6: 0.1+0.2 rounds up
		{0.3, 0, 6},   // 7: not dominated by 6 (0.3 > 0.1)
	}, 3)
	if got, want := s.contenders(), []int{0, 1, 2, 4, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("contenders %v, want %v", got, want)
	}
	all, err := s.SubsetsCtx(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if all.Trials != 1 || all.BestCount[1] != 1 {
		t.Fatalf("full-set trial chose %v, want order 1 (lowest of the tied rows)", all.BestCount)
	}
	for k := 0; k <= 3; k++ {
		checkAgainstFullScan(t, s, k, []int{1}, 200, 1993)
	}
}

// fuzzLevels are the few values fuzzed matrices draw from, so exact ties
// and duplicate rows are common; 0.1, 0.2 and 0.3 add with rounding.
var fuzzLevels = [...]float64{0, 0.1, 0.2, 0.3, 1, 12.5, 100.0 / 3}

// FuzzSubsetScorer checks that contender pruning never changes a result:
// pruned exact, Range-merged and sampled runs over a small decoded sweep
// must equal the full-scan reference.
func FuzzSubsetScorer(f *testing.F) {
	f.Add([]byte{3, 2, 1, 7, 0, 1, 2, 3, 4, 5, 6, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{8, 4, 3, 2, 9, 1, 2, 1, 2, 1, 2, 1, 2, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		n := next() % 9
		k := next() % (n + 1)
		cut := next() % (1<<(n/2) + 1)
		seed := int64(next())
		m := make([][]float64, 1+next()%24)
		for o := range m {
			m[o] = make([]float64, n)
			for b := range m[o] {
				m[o][b] = fuzzLevels[next()%len(fuzzLevels)]
			}
		}
		checkAgainstFullScan(t, matrixSweep(m, n), k, []int{cut}, 64, seed)
	})
}
