package main

import "testing"

func TestClosedOrderDeterministic(t *testing.T) {
	set := warmSet()
	a, b := newClosedOrder(3, 0, set), newClosedOrder(3, 0, set)
	other := newClosedOrder(3, 1, set)
	same, seen := true, map[*request]int{}
	for i := 0; i < len(set); i++ {
		ra, rb := a.next(), b.next()
		if ra != rb {
			t.Fatal("the same seed and client gave two different orders")
		}
		if other.next() != ra {
			same = false
		}
		seen[ra]++
	}
	if same {
		t.Error("clients 0 and 1 sent the same order")
	}
	if len(seen) != len(set) {
		t.Errorf("one pass sent %d distinct requests, want all %d", len(seen), len(set))
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, err := percentile(xs, 0.99)
	if err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", p, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:50], 0.5); err != nil {
		t.Fatalf("p50 of 50 samples: %v", err)
	}
}

// TestFailedRequestMakesRunIncorrect: a request that failed on arrival
// counts as failed and as a correctness failure, and only the measured
// phases' samples count.
func TestFailedRequestMakesRunIncorrect(t *testing.T) {
	o := &outcome{}
	ok := &seen{}
	res := loadResult{samples: []sample{{e: ok}, {e: nil}, {e: ok}}}
	if err := finishServe(o, newVerifier(), res); err != nil {
		t.Fatal(err)
	}
	if o.attempted != 3 || o.failed != 1 || len(o.errs) != 1 {
		t.Fatalf("attempted %d, failed %d, errors %q; want 3, 1 and one error", o.attempted, o.failed, o.errs)
	}
}

func TestCutSection(t *testing.T) {
	rest, sec, err := cutSection("a\n\nT\nx\ny\n\nb\n", "T")
	if err != nil || sec != "T\nx\ny" || rest != "a\n\n\n\nb\n" {
		t.Fatalf("cutSection = %q, %q, %v", rest, sec, err)
	}
}
