package orders

import (
	"context"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"ballarus/internal/core"
	"ballarus/internal/minic"
	"ballarus/internal/profile"

	"ballarus/internal/interp"
)

func TestAllOrders(t *testing.T) {
	all := All()
	if len(all) != NumOrders {
		t.Fatalf("got %d orders, want %d", len(all), NumOrders)
	}
	seen := map[core.Order]bool{}
	for _, o := range all {
		if !o.Valid() {
			t.Fatalf("invalid order %v", o)
		}
		if seen[o] {
			t.Fatalf("duplicate order %v", o)
		}
		seen[o] = true
	}
	// Lexicographic: the first order is the identity permutation.
	if all[0] != core.SectionOrder {
		t.Errorf("first order %v, want definition order", all[0])
	}
	// And the enumeration is sorted.
	for i := 1; i < len(all); i++ {
		if !orderLess(all[i-1], all[i]) {
			t.Fatalf("orders not sorted at %d", i)
		}
	}
}

func orderLess(a, b core.Order) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// realBench compiles and runs a small program, returning its analysis and
// profile for collapse testing.
func realBench(t *testing.T) (*core.Analysis, *profile.Profile) {
	t.Helper()
	src := `
struct node { int v; struct node *next; };
int g;
int work(struct node *p, int x) {
	int s = 0;
	while (p != 0) {
		if (p->v < 0) { s--; } else { s += p->v; }
		if (x > 0) { g = s; }
		p = p->next;
	}
	if (s == 0) { return -1; }
	return s;
}
int main() {
	struct node *l = 0;
	int i;
	for (i = 0; i < 50; i++) {
		struct node *n = (struct node*)alloc(sizeof(struct node));
		n->v = i - 5;
		n->next = l;
		l = n;
	}
	printi(work(l, 1) + work(l, 0));
	return 0;
}`
	prog, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a, res.Profile
}

// bruteMissRate computes the non-loop miss rate for an order directly per
// branch, the oracle Collapse must agree with.
func bruteMissRate(a *core.Analysis, p *profile.Profile, order core.Order) float64 {
	var miss, dyn int64
	for i := range a.Branches {
		b := &a.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		d := p.Executed(b.ID)
		if d == 0 {
			continue
		}
		dyn += d
		pred, _, _ := b.PredictWith(order)
		miss += p.Misses(b.ID, pred.Taken())
	}
	if dyn == 0 {
		return 0
	}
	return 100 * float64(miss) / float64(dyn)
}

func TestCollapseMatchesBruteForce(t *testing.T) {
	a, p := realBench(t)
	bd := Collapse(a, p, "test")
	for _, o := range []core.Order{core.DefaultOrder, core.SectionOrder} {
		got := bd.MissRate(o)
		want := bruteMissRate(a, p, o)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("order %v: collapse %f, brute %f", o, got, want)
		}
	}
	// And over a random sample of orders.
	all := All()
	f := func(idx uint16) bool {
		o := all[int(idx)%len(all)]
		return math.Abs(bd.MissRate(o)-bruteMissRate(a, p, o)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// syntheticBench builds a BenchData where heuristic h alone covers one
// branch with a chosen miss count, for controlled sweep tests.
func syntheticBench(name string, perHeurMiss [core.NumHeuristics]int64) *BenchData {
	d := &BenchData{Name: name}
	for h := 0; h < core.NumHeuristics; h++ {
		mask := 1 << h
		d.Dyn[mask] = 100
		d.Miss[mask][h] = perHeurMiss[h]
		d.TotalNonLoop += 100
	}
	return d
}

// mustSweep evaluates every order on every benchmark, failing t on error.
func mustSweep(t testing.TB, benches []*BenchData) *Sweep {
	t.Helper()
	s, err := NewSweepCtx(context.Background(), benches)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepAndBestOrder(t *testing.T) {
	// Benchmark where every heuristic has its own branch population; the
	// miss rate is the same under every order (no overlap), so the sweep
	// must be flat.
	flat := syntheticBench("flat", [core.NumHeuristics]int64{10, 10, 10, 10, 10, 10, 10})
	s := mustSweep(t, []*BenchData{flat})
	avg := s.Avg(nil)
	for _, v := range avg {
		if math.Abs(v-10) > 1e-9 {
			t.Fatalf("flat sweep should be 10%% everywhere, got %f", v)
		}
	}
	// Overlapping population: mask with two heuristics where one is right
	// and the other wrong; orders placing the right one earlier win.
	d := &BenchData{Name: "overlap", TotalNonLoop: 100}
	mask := (1 << core.Opcode) | (1 << core.Guard)
	d.Dyn[mask] = 100
	d.Miss[mask][core.Opcode] = 0
	d.Miss[mask][core.Guard] = 100
	s2 := mustSweep(t, []*BenchData{d})
	best := s2.BestOrder(nil)
	o := s2.Orders[best]
	for _, h := range o {
		if h == core.Opcode {
			break
		}
		if h == core.Guard {
			t.Fatalf("best order %v places Guard before Opcode", o)
		}
	}
	sorted := s2.SortedAvg(nil)
	if sorted[0] != 0 || sorted[len(sorted)-1] != 100 {
		t.Errorf("sorted extremes %f..%f, want 0..100", sorted[0], sorted[len(sorted)-1])
	}
}

func TestSubsetsExactSmall(t *testing.T) {
	// 4 synthetic benchmarks, subsets of size 2: C(4,2)=6 trials; verify
	// against direct enumeration.
	var benches []*BenchData
	misses := [][core.NumHeuristics]int64{
		{0, 50, 50, 50, 50, 50, 50},
		{50, 0, 50, 50, 50, 50, 50},
		{0, 50, 50, 50, 50, 50, 50},
		{50, 50, 50, 50, 50, 50, 0},
	}
	for i, m := range misses {
		benches = append(benches, syntheticBench(string(rune('a'+i)), m))
	}
	s := mustSweep(t, benches)
	res, err := s.SubsetsCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 6 {
		t.Fatalf("trials %d, want 6", res.Trials)
	}
	// Oracle: enumerate subsets and argmin directly.
	want := make([]int, len(s.Orders))
	n := len(benches)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			best, bv := 0, math.Inf(1)
			for o := range s.Orders {
				v := s.M[o][i] + s.M[o][j]
				if v < bv {
					bv = v
					best = o
				}
			}
			want[best]++
		}
	}
	for o := range want {
		if want[o] != res.BestCount[o] {
			t.Fatalf("order %d: count %d, want %d", o, res.BestCount[o], want[o])
		}
	}
}

func TestSubsetsSampledDeterministic(t *testing.T) {
	benches := []*BenchData{
		syntheticBench("a", [core.NumHeuristics]int64{0, 10, 20, 30, 40, 50, 60}),
		syntheticBench("b", [core.NumHeuristics]int64{60, 50, 40, 30, 20, 10, 0}),
		syntheticBench("c", [core.NumHeuristics]int64{5, 5, 5, 5, 5, 5, 5}),
	}
	s := mustSweep(t, benches)
	r1, err := s.SubsetsSampledCtx(context.Background(), 2, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SubsetsSampledCtx(context.Background(), 2, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trials != 100 || r2.Trials != 100 {
		t.Fatal("wrong trial count")
	}
	for o := range r1.BestCount {
		if r1.BestCount[o] != r2.BestCount[o] {
			t.Fatal("sampled experiment not deterministic for a fixed seed")
		}
	}
}

func TestRankedAndDistinct(t *testing.T) {
	r := &SubsetResult{Trials: 10, BestCount: make([]int, 10)}
	r.BestCount[3] = 5
	r.BestCount[7] = 4
	r.BestCount[1] = 1
	if r.DistinctOrders() != 3 {
		t.Errorf("distinct %d", r.DistinctOrders())
	}
	ranked := r.Ranked()
	if len(ranked) != 3 || ranked[0] != 3 || ranked[1] != 7 || ranked[2] != 1 {
		t.Errorf("ranked %v", ranked)
	}
}

func TestMasksWithPopcount(t *testing.T) {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			masks := masksWithPopcount(n, k)
			if len(masks) != binom(n, k) {
				t.Errorf("C(%d,%d): got %d masks, want %d", n, k, len(masks), binom(n, k))
			}
			for _, m := range masks {
				if bits.OnesCount(uint(m)) != k {
					t.Errorf("mask %b has popcount %d, want %d", m, bits.OnesCount(uint(m)), k)
				}
			}
		}
	}
}

// shardTestBenches returns a small deterministic benchmark set exercising
// distinct per-order behavior.
func shardTestBenches(n int) []*BenchData {
	benches := make([]*BenchData, n)
	for i := range benches {
		var m [core.NumHeuristics]int64
		for h := range m {
			m[h] = int64((i*13 + h*29 + 7) % 83)
		}
		benches[i] = syntheticBench(string(rune('a'+i)), m)
	}
	// An overlapping mask so orderings actually matter.
	for i, d := range benches {
		mask := (1 << core.Opcode) | (1 << core.Guard)
		d.Dyn[mask] = 100
		d.Miss[mask][core.Opcode] = int64(i * 10 % 70)
		d.Miss[mask][core.Guard] = int64((i*10 + 35) % 70)
		d.TotalNonLoop += 100
	}
	return benches
}

func TestShardOrdersExactPartition(t *testing.T) {
	all := All()
	cuts := []int{0, 1, 17, 512, 513, 2048, 5039, NumOrders}
	var joined []core.Order
	for i := 1; i < len(cuts); i++ {
		part, err := ShardOrders(cuts[i-1], cuts[i])
		if err != nil {
			t.Fatalf("ShardOrders(%d,%d): %v", cuts[i-1], cuts[i], err)
		}
		if len(part) != cuts[i]-cuts[i-1] {
			t.Fatalf("shard [%d,%d) has %d orders", cuts[i-1], cuts[i], len(part))
		}
		joined = append(joined, part...)
	}
	if !reflect.DeepEqual(joined, all) {
		t.Fatal("concatenated shards differ from All()")
	}
	for _, bad := range [][2]int{{-1, 3}, {3, 2}, {0, NumOrders + 1}} {
		if _, err := ShardOrders(bad[0], bad[1]); err == nil {
			t.Errorf("ShardOrders(%d,%d) accepted invalid range", bad[0], bad[1])
		}
	}
	// Empty shards are allowed (a planner edge, not an error).
	if part, err := ShardOrders(10, 10); err != nil || len(part) != 0 {
		t.Errorf("empty shard: %v, %v", part, err)
	}
}

func TestShardMasksExactPartition(t *testing.T) {
	const width = 6
	cuts := []int{0, 1, 7, 32, 33, 64}
	seen := make([]bool, 1<<width)
	for i := 1; i < len(cuts); i++ {
		part, err := ShardMasks(cuts[i-1], cuts[i], width)
		if err != nil {
			t.Fatalf("ShardMasks(%d,%d,%d): %v", cuts[i-1], cuts[i], width, err)
		}
		for _, m := range part {
			if seen[m] {
				t.Fatalf("mask %d appears in two shards", m)
			}
			seen[m] = true
		}
	}
	for m, ok := range seen {
		if !ok {
			t.Fatalf("mask %d missing from partition", m)
		}
	}
	for _, bad := range [][3]int{{-1, 3, 6}, {3, 2, 6}, {0, 65, 6}, {0, 1, -1}, {0, 1, 31}} {
		if _, err := ShardMasks(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("ShardMasks(%d,%d,%d) accepted invalid input", bad[0], bad[1], bad[2])
		}
	}
}

func TestBinomial(t *testing.T) {
	cases := map[[2]int]int64{
		{0, 0}: 1, {5, 0}: 1, {5, 5}: 1, {5, 2}: 10,
		{22, 11}: 705432, {7, 3}: 35, {4, 5}: 0, {4, -1}: 0,
	}
	for in, want := range cases {
		if got := Binomial(in[0], in[1]); got != want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", in[0], in[1], got, want)
		}
	}
}

// TestSweepRangeMergeBitIdentical pins the job engine's sweep shard-merge
// invariant: rows computed range-by-range are bit-identical to NewSweep's
// matrix, for any partition of [0, NumOrders).
func TestSweepRangeMergeBitIdentical(t *testing.T) {
	benches := shardTestBenches(5)
	want := mustSweep(t, benches)
	cuts := []int{0, 100, 101, 1234, 4000, NumOrders}
	got := make([][]float64, 0, NumOrders)
	for i := 1; i < len(cuts); i++ {
		rows, err := SweepRange(context.Background(), benches, cuts[i-1], cuts[i])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
	}
	if len(got) != len(want.M) {
		t.Fatalf("merged %d rows, want %d", len(got), len(want.M))
	}
	for o := range got {
		for b := range got[o] {
			if got[o][b] != want.M[o][b] { // exact, not approximate
				t.Fatalf("cell [%d][%d]: merged %v, single-process %v", o, b, got[o][b], want.M[o][b])
			}
		}
	}
}

// TestSubsetsRangeMergeExact pins the subset shard-merge invariant:
// scorer ranges over any partition of the low-mask space merge to exactly
// the single-process exact result.
func TestSubsetsRangeMergeExact(t *testing.T) {
	benches := shardTestBenches(8)
	s := mustSweep(t, benches)
	const k = 4
	want, err := s.SubsetsCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if want.Trials != int(Binomial(8, k)) {
		t.Fatalf("exact trials %d, want %d", want.Trials, Binomial(8, k))
	}
	sc, err := s.NewSubsetScorer(k)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 3, 4, 9, sc.LowMasks()}
	var parts []*SubsetResult
	for i := 1; i < len(cuts); i++ {
		p, err := sc.Range(context.Background(), cuts[i-1], cuts[i])
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	got := MergeSubsetResults(parts...)
	if got.Trials != want.Trials {
		t.Fatalf("merged trials %d, want %d", got.Trials, want.Trials)
	}
	for o := range want.BestCount {
		if got.BestCount[o] != want.BestCount[o] {
			t.Fatalf("order %d: merged count %d, want %d", o, got.BestCount[o], want.BestCount[o])
		}
	}
}

// TestSubsetsSampledAgreesWithExact checks the sampled mode against the
// exact experiment on a small k: every order the sample ranks must also
// be chosen by some exact trial (sampled subsets are drawn from the same
// space), and with this fixed seed the top-ranked orders agree.
func TestSubsetsSampledAgreesWithExact(t *testing.T) {
	benches := shardTestBenches(8)
	s := mustSweep(t, benches)
	const k = 4
	exact, err := s.SubsetsCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := s.SubsetsSampledCtx(context.Background(), k, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	exactChosen := map[int]bool{}
	for _, o := range exact.Ranked() {
		exactChosen[o] = true
	}
	for _, o := range sampled.Ranked() {
		if !exactChosen[o] {
			t.Errorf("sampled chose order %d that no exact trial chooses", o)
		}
	}
	if sampled.Ranked()[0] != exact.Ranked()[0] {
		t.Errorf("top order: sampled %d, exact %d", sampled.Ranked()[0], exact.Ranked()[0])
	}
}

func TestSubsetsSampledCrossSeedDeterminism(t *testing.T) {
	benches := shardTestBenches(6)
	s := mustSweep(t, benches)
	for _, seed := range []int64{1, 42, 1993} {
		a, err := s.SubsetsSampledCtx(context.Background(), 3, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SubsetsSampledCtx(context.Background(), 3, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.Trials != 200 || !reflect.DeepEqual(a.BestCount, b.BestCount) {
			t.Fatalf("seed %d: sampled run not reproducible", seed)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	benches := shardTestBenches(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepRange(ctx, benches, 0, NumOrders); err == nil {
		t.Error("SweepRange ignored cancelled context")
	}
	if _, err := NewSweepCtx(ctx, benches); err == nil {
		t.Error("NewSweepCtx ignored cancelled context")
	}
	s := mustSweep(t, benches)
	if _, err := s.SubsetsCtx(ctx, 3); err == nil {
		t.Error("SubsetsCtx ignored cancelled context")
	}
	if _, err := s.SubsetsSampledCtx(ctx, 3, 1000, 1); err == nil {
		t.Error("SubsetsSampledCtx ignored cancelled context")
	}
	sc, err := s.NewSubsetScorer(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Range(ctx, 0, sc.LowMasks()); err == nil {
		t.Error("SubsetScorer.Range ignored cancelled context")
	}
}

func TestSubsetsProgress(t *testing.T) {
	benches := shardTestBenches(6)
	s := mustSweep(t, benches)
	var mu sync.Mutex
	var last, total int64
	res, err := s.SubsetsOpts(context.Background(), 3, SubsetOpts{
		Progress: func(done, tot int64) {
			mu.Lock()
			if done > last {
				last = done
			}
			total = tot
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := Binomial(6, 3); last != want || total != want || int64(res.Trials) != want {
		t.Errorf("progress saw %d/%d, trials %d, want %d", last, total, res.Trials, want)
	}
}
