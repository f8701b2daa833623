package orders_test

import (
	"context"
	"reflect"
	"testing"

	"ballarus/internal/eval"
	"ballarus/internal/orders"
)

// TestContendersSuiteSweep checks contender pruning on the real 22-program
// sweep against the full 5040-order scan: 2,000 sampled trials, one Range
// slice of low masks, and the exact experiment's chosen orders.
func TestContendersSuiteSweep(t *testing.T) {
	s, err := eval.New().Sweep()
	if err != nil {
		t.Fatal(err)
	}
	const k = 11
	cand := orders.Contenders(s)
	t.Logf("%d of %d orders are contenders", len(cand), orders.NumOrders)
	isCand := map[int]bool{}
	for _, o := range cand {
		isCand[o] = true
	}

	ctx := context.Background()
	sampled, err := s.SubsetsSampledCtx(ctx, k, 2000, 1993)
	if err != nil {
		t.Fatal(err)
	}
	if want := orders.FullScanSampled(s, k, 2000, 1993); !reflect.DeepEqual(orders.Chosen(sampled), orders.Chosen(want)) {
		t.Fatalf("sampled: pruned %v, full scan %v", orders.Chosen(sampled), orders.Chosen(want))
	}

	sc, err := s.NewSubsetScorer(k)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi = 1500, 1540
	got, err := sc.Range(ctx, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := orders.FullScanRange(s, k, lo, hi)
	if !reflect.DeepEqual(orders.Chosen(got), orders.Chosen(want)) {
		t.Fatalf("low masks [%d,%d): pruned %v, full scan %v", lo, hi, orders.Chosen(got), orders.Chosen(want))
	}
	t.Logf("low masks [%d,%d): %d trials agree", lo, hi, want.Trials)

	exact, err := s.SubsetsCtx(ctx, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range exact.Ranked() {
		if !isCand[o] {
			t.Errorf("exact experiment chose order %d, which is not a contender", o)
		}
	}
}
