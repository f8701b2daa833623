// Package orders implements Section 5's ordering experiments: evaluating
// all 7! = 5040 priority orders of the non-loop heuristics over a set of
// benchmarks (Graph 1), and the C(22,11) = 705,432-trial generalization
// experiment in which the best order for each half of the benchmarks is
// scored on all of them (Table 4, Graphs 2 and 3).
//
// Evaluating an order is made cheap by collapsing each benchmark's
// non-loop branches by heuristic-applicability mask: for a 7-bit mask m
// and heuristic h, the collapsed data records the dynamic misses h incurs
// on all branches whose applicable set is exactly m. An order's miss count
// is then a sum over at most 127 masks instead of all branches.
//
// The subset experiment scores each trial against contenders only: the
// orders no lower-index order matches or beats on every benchmark. An
// order some lower-index order dominates can never be a trial's argmin
// (see SubsetScorer), so dropping it changes no result. On the 22-program
// suite that leaves 49 of the 5040 orders.
//
// Both experiments decompose into contiguous shards — order-index ranges
// for the sweep, low-mask ranges for the subset experiment — that merge
// back bit-identically to the single-process result. ShardOrders and
// ShardMasks carve the spaces; SweepRange and SubsetScorer.Range evaluate
// one shard; MergeSubsetResults recombines. The single-process entry
// points are thin parallel drivers over the same shard primitives, so a
// distributed run and a local run share one code path.
package orders

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ballarus/internal/core"
	"ballarus/internal/profile"
)

// NumOrders is 7! — every total priority order of the seven heuristics.
const NumOrders = 5040

// checkEvery is how many trials the hot loops run between context
// cancellation checks.
const checkEvery = 64

// BenchData is one benchmark's non-loop branch population collapsed by
// heuristic-applicability mask.
type BenchData struct {
	Name string

	Dyn  [128]int64                     // dynamic branches per mask
	Miss [128][core.NumHeuristics]int64 // misses if heuristic h predicts mask-m branches

	DefaultDyn  int64 // dynamic branches covered by no heuristic
	DefaultMiss int64 // misses of the Default (random) prediction on them

	TotalNonLoop int64 // all dynamic non-loop branches
}

// Collapse reduces an analysis + profile to mask-indexed counts.
func Collapse(a *core.Analysis, p *profile.Profile, name string) *BenchData {
	d := &BenchData{Name: name}
	for i := range a.Branches {
		b := &a.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		dyn := p.Executed(b.ID)
		if dyn == 0 {
			continue
		}
		d.TotalNonLoop += dyn
		mask := 0
		for h := 0; h < core.NumHeuristics; h++ {
			if b.Heur[h] != core.PredNone {
				mask |= 1 << h
			}
		}
		if mask == 0 {
			d.DefaultDyn += dyn
			d.DefaultMiss += p.Misses(b.ID, b.DefaultPred.Taken())
			continue
		}
		d.Dyn[mask] += dyn
		for h := 0; h < core.NumHeuristics; h++ {
			if b.Heur[h] != core.PredNone {
				d.Miss[mask][h] += p.Misses(b.ID, b.Heur[h].Taken())
			}
		}
	}
	return d
}

// MissRate returns the benchmark's non-loop miss percentage under the
// order (first applicable heuristic wins; Default covers the rest).
func (d *BenchData) MissRate(order core.Order) float64 {
	if d.TotalNonLoop == 0 {
		return 0
	}
	miss := d.DefaultMiss
	for mask := 1; mask < 128; mask++ {
		if d.Dyn[mask] == 0 {
			continue
		}
		for _, h := range order {
			if mask&(1<<h) != 0 {
				miss += d.Miss[mask][h]
				break
			}
		}
	}
	return 100 * float64(miss) / float64(d.TotalNonLoop)
}

var (
	allOnce  sync.Once
	allPerms []core.Order
)

// All enumerates every order, lexicographically over heuristic IDs. The
// sequence is deterministic so order indices are stable and canonical
// across processes — the property the distributed sweep's shard merge
// relies on. The returned slice is a fresh copy each call.
func All() []core.Order {
	allOnce.Do(func() {
		perms := make([]core.Order, 0, NumOrders)
		var h [core.NumHeuristics]core.Heuristic
		for i := range h {
			h[i] = core.Heuristic(i)
		}
		var rec func(k int)
		rec = func(k int) {
			if k == len(h) {
				perms = append(perms, core.Order(h))
				return
			}
			for i := k; i < len(h); i++ {
				h[k], h[i] = h[i], h[k]
				rec(k + 1)
				h[k], h[i] = h[i], h[k]
			}
		}
		rec(0)
		// The recursive swap enumeration is not lexicographic; sort to make
		// the index order canonical.
		sort.Slice(perms, func(a, b int) bool {
			for i := 0; i < core.NumHeuristics; i++ {
				if perms[a][i] != perms[b][i] {
					return perms[a][i] < perms[b][i]
				}
			}
			return false
		})
		allPerms = perms
	})
	out := make([]core.Order, NumOrders)
	copy(out, allPerms)
	return out
}

// ShardOrders returns the canonical orders with indices in [lo, hi) — one
// contiguous shard of the 5040-order sweep. Shards [0,a), [a,b), ...,
// [z,NumOrders) form an exact partition of All().
func ShardOrders(lo, hi int) ([]core.Order, error) {
	if lo < 0 || hi > NumOrders || lo > hi {
		return nil, fmt.Errorf("orders: shard range [%d,%d) outside [0,%d)", lo, hi, NumOrders)
	}
	return All()[lo:hi:hi], nil
}

// ShardMasks returns the masks in [lo, hi) over a bits-wide mask space —
// one contiguous shard of the subset experiment's low-mask enumeration.
// Masks are their own indices, so shards partition [0, 1<<bits) exactly.
func ShardMasks(lo, hi, bits int) ([]int, error) {
	if bits < 0 || bits > 30 {
		return nil, fmt.Errorf("orders: mask width %d outside [0,30]", bits)
	}
	if lo < 0 || hi > 1<<bits || lo > hi {
		return nil, fmt.Errorf("orders: mask range [%d,%d) outside [0,%d)", lo, hi, 1<<bits)
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out, nil
}

// Binomial returns C(n, k), or 0 when k is out of range.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	v := int64(1)
	for i := 1; i <= k; i++ {
		v = v * int64(n-k+i) / int64(i)
	}
	return v
}

// Sweep holds the per-order, per-benchmark miss-rate matrix.
type Sweep struct {
	Orders  []core.Order
	Benches []*BenchData
	M       [][]float64 // [order][bench], percent
}

// SweepRange evaluates the orders with indices [lo, hi) on every
// benchmark and returns their matrix rows. Rows are deterministic
// functions of (benches, order index) alone, so ranges computed on
// different machines concatenate bit-identically to NewSweep's matrix.
// Cancellation is checked every checkEvery orders.
func SweepRange(ctx context.Context, benches []*BenchData, lo, hi int) ([][]float64, error) {
	ords, err := ShardOrders(lo, hi)
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, len(ords))
	for i, ord := range ords {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := make([]float64, len(benches))
		for b, bd := range benches {
			row[b] = bd.MissRate(ord)
		}
		rows[i] = row
	}
	return rows, nil
}

// NewSweepCtx evaluates every order on every benchmark, parallel over
// contiguous order ranges via SweepRange.
func NewSweepCtx(ctx context.Context, benches []*BenchData) (*Sweep, error) {
	s := &Sweep{Orders: All(), Benches: benches}
	s.M = make([][]float64, len(s.Orders))
	nw := runtime.GOMAXPROCS(0)
	chunk := (len(s.Orders) + nw - 1) / nw
	var wg sync.WaitGroup
	errs := make([]error, nw)
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(s.Orders))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			rows, err := SweepRange(ctx, benches, lo, hi)
			if err != nil {
				errs[w] = err
				return
			}
			copy(s.M[lo:hi], rows)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// NewSweep evaluates every order on every benchmark.
//
// Deprecated: use NewSweepCtx, which supports cancellation.
func NewSweep(benches []*BenchData) *Sweep {
	s, _ := NewSweepCtx(context.Background(), benches)
	return s
}

// Avg returns each order's average miss rate over the benchmarks whose
// indices are not excluded.
func (s *Sweep) Avg(exclude map[int]bool) []float64 {
	out := make([]float64, len(s.Orders))
	n := 0
	for b := range s.Benches {
		if !exclude[b] {
			n++
		}
	}
	if n == 0 {
		return out
	}
	for o := range s.Orders {
		sum := 0.0
		for b := range s.Benches {
			if !exclude[b] {
				sum += s.M[o][b]
			}
		}
		out[o] = sum / float64(n)
	}
	return out
}

// SortedAvg returns Avg sorted ascending — the Graph 1 series.
func (s *Sweep) SortedAvg(exclude map[int]bool) []float64 {
	avg := s.Avg(exclude)
	sort.Float64s(avg)
	return avg
}

// BestOrder returns the order index minimizing the average miss rate over
// the included benchmarks (ties go to the lower index).
func (s *Sweep) BestOrder(exclude map[int]bool) int {
	avg := s.Avg(exclude)
	best := 0
	for o := 1; o < len(avg); o++ {
		if avg[o] < avg[best] {
			best = o
		}
	}
	return best
}

// SubsetResult aggregates the generalization experiment: for every k-subset
// of the benchmarks, the order minimizing the subset's average miss rate
// is recorded.
type SubsetResult struct {
	Trials    int
	BestCount []int // per order index: trials in which it was chosen best
}

// DistinctOrders returns how many orders were ever chosen.
func (r *SubsetResult) DistinctOrders() int {
	n := 0
	for _, c := range r.BestCount {
		if c > 0 {
			n++
		}
	}
	return n
}

// Ranked returns order indices sorted by descending frequency (ties by
// index), keeping only chosen orders.
func (r *SubsetResult) Ranked() []int {
	var idx []int
	for o, c := range r.BestCount {
		if c > 0 {
			idx = append(idx, o)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if r.BestCount[idx[a]] != r.BestCount[idx[b]] {
			return r.BestCount[idx[a]] > r.BestCount[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// MergeSubsetResults sums partial results from disjoint shards. Trials
// and per-order counts are integers, so the merge is exact and
// order-independent: any partition of the trial space recombines to the
// same totals as a single-process run.
func MergeSubsetResults(parts ...*SubsetResult) *SubsetResult {
	out := &SubsetResult{BestCount: make([]int, NumOrders)}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Trials += p.Trials
		for o, c := range p.BestCount {
			if c != 0 {
				out.BestCount[o] += c
			}
		}
	}
	return out
}

// SubsetScorer scores k-subset trials by meeting in the middle: per-order
// partial sums over every subset of each benchmark half are precomputed,
// so scoring one subset is a vector add + argmin. A scorer built from the
// same sweep produces identical trial outcomes on any machine, which is
// what lets the subset experiment shard by low-mask range.
//
// Only contenders are scored. An order is dropped when some lower-index
// order has a miss rate <= its own on every benchmark. That changes no
// trial's winner, bit for bit: every order's subset sum is built by the
// same sequence of additions; round-to-nearest addition is monotone, so a
// dominated order's sum is >= its dominator's; and the strict-< argmin
// gives ties to the lower index, which the dominator has.
type SubsetScorer struct {
	s      *Sweep
	k      int
	cand   []int // contender order indices, ascending
	loBits int
	hiBits int
	loSum  [][]float64 // [low mask][contender]
	hiSum  [][]float64 // [high mask][contender]
}

// NewSubsetScorer precomputes the half-mask partial sums for k-subsets of
// the sweep's benchmarks.
func (s *Sweep) NewSubsetScorer(k int) (*SubsetScorer, error) {
	n := len(s.Benches)
	if k < 0 || k > n {
		return nil, fmt.Errorf("orders: subset size %d outside [0,%d]", k, n)
	}
	sc := &SubsetScorer{s: s, k: k, cand: s.contenders(), loBits: n / 2}
	sc.hiBits = n - sc.loBits
	sc.loSum = buildHalf(s, sc.cand, 0, sc.loBits)
	sc.hiSum = buildHalf(s, sc.cand, sc.loBits, sc.hiBits)
	return sc, nil
}

// contenders returns, ascending, the order indices no lower-index order
// dominates (miss rate <= on every benchmark). One pass checks each row
// against the rows kept so far only: dominance is transitive, so a row
// dominated by a dropped row is dominated by that row's keeper too.
func (s *Sweep) contenders() []int {
	var kept []int
next:
	for o, row := range s.M {
		for _, k := range kept {
			if dominates(s.M[k], row) {
				continue next
			}
		}
		kept = append(kept, o)
	}
	return kept
}

// dominates reports whether a[b] <= r[b] for every benchmark b. A NaN on
// either side is never dominated, so such rows stay contenders.
func dominates(a, r []float64) bool {
	for b, v := range a {
		if !(v <= r[b]) {
			return false
		}
	}
	return true
}

// LowMasks returns the size of the low-mask space, 1 << (n/2). Subset
// shards are contiguous ranges of [0, LowMasks()).
func (sc *SubsetScorer) LowMasks() int { return 1 << sc.loBits }

// TotalTrials returns C(n, k) — the exact experiment's trial count.
func (sc *SubsetScorer) TotalTrials() int64 {
	return Binomial(len(sc.s.Benches), sc.k)
}

// scoreLowMask scores every k-subset whose low half is lm, accumulating
// into counts. It returns the number of trials scored.
func (sc *SubsetScorer) scoreLowMask(lm int, counts []int) int {
	need := sc.k - bits.OnesCount(uint(lm))
	if need < 0 || need > sc.hiBits {
		return 0
	}
	lrow := sc.loSum[lm]
	trials := 0
	for _, hm := range masksWithPopcount(sc.hiBits, need) {
		hrow := sc.hiSum[hm]
		best := 0
		bv := lrow[0] + hrow[0]
		for o := 1; o < len(lrow); o++ {
			v := lrow[o] + hrow[o]
			if v < bv {
				bv = v
				best = o
			}
		}
		counts[sc.cand[best]]++
		trials++
	}
	return trials
}

// Range scores the trials whose low mask falls in [lo, hi) — one
// contiguous shard of the exact experiment. Shards partitioning
// [0, LowMasks()) merge (MergeSubsetResults) to exactly Subsets' result.
// Cancellation is checked per low mask.
func (sc *SubsetScorer) Range(ctx context.Context, lo, hi int) (*SubsetResult, error) {
	if _, err := ShardMasks(lo, hi, sc.loBits); err != nil {
		return nil, err
	}
	res := &SubsetResult{BestCount: make([]int, len(sc.s.Orders))}
	for lm := lo; lm < hi; lm++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Trials += sc.scoreLowMask(lm, res.BestCount)
	}
	return res, nil
}

// SubsetOpts tunes the exact and sampled experiment drivers.
type SubsetOpts struct {
	// Progress, when set, is called with the cumulative and total trial
	// counts as the experiment advances. It may be called concurrently
	// and must be cheap.
	Progress func(done, total int64)
}

// SubsetsOpts runs the experiment exactly over every k-subset of the
// sweep's benchmarks, parallel over low masks via the shared scorer.
func (s *Sweep) SubsetsOpts(ctx context.Context, k int, opts SubsetOpts) (*SubsetResult, error) {
	sc, err := s.NewSubsetScorer(k)
	if err != nil {
		return nil, err
	}
	total := sc.TotalTrials()
	nw := runtime.GOMAXPROCS(0)
	counts := make([][]int, nw)
	trials := make([]int, nw)
	errs := make([]error, nw)
	var done atomic.Int64
	var wg sync.WaitGroup
	work := make(chan int, 64)
	for w := 0; w < nw; w++ {
		counts[w] = make([]int, len(s.Orders))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lm := range work {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					continue // drain the channel
				}
				t := sc.scoreLowMask(lm, counts[w])
				trials[w] += t
				if t > 0 && opts.Progress != nil {
					opts.Progress(done.Add(int64(t)), total)
				}
			}
		}(w)
	}
	for lm := 0; lm < sc.LowMasks(); lm++ {
		work <- lm
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	parts := make([]*SubsetResult, nw)
	for w := 0; w < nw; w++ {
		parts[w] = &SubsetResult{Trials: trials[w], BestCount: counts[w]}
	}
	return MergeSubsetResults(parts...), nil
}

// SubsetsCtx runs the exact experiment with default options.
func (s *Sweep) SubsetsCtx(ctx context.Context, k int) (*SubsetResult, error) {
	return s.SubsetsOpts(ctx, k, SubsetOpts{})
}

// Subsets runs the experiment exactly over every k-subset of the sweep's
// benchmarks.
//
// Deprecated: use SubsetsCtx, which supports cancellation and progress.
func (s *Sweep) Subsets(k int) *SubsetResult {
	res, _ := s.SubsetsCtx(context.Background(), k)
	return res
}

// buildHalf precomputes, for every subset mask of benches
// [base, base+width), each contender's sum of miss rates.
func buildHalf(s *Sweep, cand []int, base, width int) [][]float64 {
	out := make([][]float64, 1<<width)
	out[0] = make([]float64, len(cand))
	for m := 1; m < 1<<width; m++ {
		low := m & (-m)
		rest := m ^ low
		b := base + bits.TrailingZeros(uint(low))
		row := make([]float64, len(cand))
		prev := out[rest]
		for i, o := range cand {
			row[i] = prev[i] + s.M[o][b]
		}
		out[m] = row
	}
	return out
}

// SubsetsSampledOpts runs the experiment over `trials` random k-subsets —
// the quick mode used in tests and short benchmark runs. The trial stream
// is a deterministic function of (sweep, k, trials, seed): the single rng
// stream is inherently serial, so the sampled mode does not shard.
// Cancellation is checked every checkEvery trials.
func (s *Sweep) SubsetsSampledOpts(ctx context.Context, k, trials int, seed int64, opts SubsetOpts) (*SubsetResult, error) {
	n := len(s.Benches)
	cand := s.contenders()
	rng := rand.New(rand.NewSource(seed))
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < trials; t++ {
		if t%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		chosen := idx[:k]
		best, bv := 0, math.Inf(1)
		for _, o := range cand {
			row := s.M[o]
			sum := 0.0
			for _, b := range chosen {
				sum += row[b]
			}
			if sum < bv {
				bv = sum
				best = o
			}
		}
		res.BestCount[best]++
		res.Trials++
		if opts.Progress != nil {
			opts.Progress(int64(res.Trials), int64(trials))
		}
	}
	return res, nil
}

// SubsetsSampledCtx runs the sampled experiment with default options.
func (s *Sweep) SubsetsSampledCtx(ctx context.Context, k, trials int, seed int64) (*SubsetResult, error) {
	return s.SubsetsSampledOpts(ctx, k, trials, seed, SubsetOpts{})
}

// SubsetsSampled runs the experiment over `trials` random k-subsets.
//
// Deprecated: use SubsetsSampledCtx, which supports cancellation.
func (s *Sweep) SubsetsSampled(k, trials int, seed int64) *SubsetResult {
	res, _ := s.SubsetsSampledCtx(context.Background(), k, trials, seed)
	return res
}

// masksWithPopcount enumerates all masks over `width` bits with exactly
// `count` set bits, in Gosper order. Results are cached per (width,count).
var maskCache sync.Map

func masksWithPopcount(width, count int) []int {
	key := width<<8 | count
	if v, ok := maskCache.Load(key); ok {
		return v.([]int)
	}
	var out []int
	if count == 0 {
		out = []int{0}
	} else if count <= width {
		m := (1 << count) - 1
		limit := 1 << width
		for m < limit {
			out = append(out, m)
			// Gosper's hack: next mask with the same popcount.
			c := m & (-m)
			r := m + c
			m = (((r ^ m) >> 2) / c) | r
		}
	}
	maskCache.Store(key, out)
	return out
}
