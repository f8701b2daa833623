package service

import (
	"sync"
	"testing"

	"ballarus/internal/minic"
	"ballarus/internal/suite"
)

// TestRequestKeysStable pins the cache-key byte stream. The keys below
// name entries in durable snapshots and journals written by earlier
// binaries, so a change to a length prefix, a field's encoding or the
// field order must fail here rather than silently orphan a state dir.
func TestRequestKeysStable(t *testing.T) {
	s := New()
	resolved := func(req Request) Request {
		t.Helper()
		if err := s.resolve(&req); err != nil {
			t.Fatal(err)
		}
		return req
	}
	type keys struct{ prog, analysis, run string }
	keysOf := func(req Request) keys {
		p, a, r := req.keys()
		return keys{p, a, r}
	}
	grep := keys{
		"28451b45df68170bd9a2f9072b6f33875c5e78c72983e201cb174020bad62ad6",
		"b1c3a0051182232c15d43b3f5dcf388c2efaa1830b0866d9b5da49b9d507eccb",
		"0269962ebd64d8cea26a1e349202b9427444a0ead3c5dd6de9ea8af46f2c4d6f",
	}
	congress := keys{
		"69ea574fe61731f26fc625473e1c6b9215d55668b938dc88e6fd253a1f24d67e",
		"adaedbec3d876e2019eec2a4737402d2009acb4d456717db96995de379687caa",
		"416d53d4d2b3afd291b273e51baa892b3e32c3f94a33e07d1ed1f9f536da8ff4",
	}
	explicit := func(bench string, ds int) Request {
		in := append([]int64(nil), suite.Get(bench).Data[ds].Input...)
		return Request{Benchmark: bench, Dataset: ds, Input: in}
	}
	cases := []struct {
		name string
		req  Request
		want keys
	}{
		{"source", Request{
			Source:      "int main() { printi(input()); return 0; }",
			CompileOpts: minic.Options{SpillLocals: true, NoJumpTables: true},
			Optimize:    true,
			Input:       []int64{3, 1, 4},
			Budget:      12345,
			Seed:        9,
		}, keys{
			"d10bf5efa2b5191decfbe04adc93c1f39ccf7b70425bb651be99704c0d89979f",
			"70eb17aef82c49a6c51ad4c04a41adebef05173ac07e053b5cfd783483e295c6",
			"59ae795a945d8071c519ebefd4e12d10ac45727da3e631c420ed450b17858f89",
		}},
		{"grep/0 default input", Request{Benchmark: "grep"}, grep},
		{"congress/1 default input", Request{Benchmark: "congress", Dataset: 1}, congress},
		{"grep/0 explicit input", explicit("grep", 0), grep},
		{"congress/1 explicit input", explicit("congress", 1), congress},
	}
	// Twice over, so the second pass resumes from the per-process
	// digest of each suite input even if the first pass saved it.
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			if got := keysOf(resolved(c.req)); got != c.want {
				t.Errorf("pass %d, %s: keys = %+v, want %+v", pass, c.name, got, c.want)
			}
		}
	}

	// The resumed digest covers the input only: the seed still counts.
	if keysOf(resolved(Request{Benchmark: "grep", Seed: 5})).run == grep.run {
		t.Error("grep/0: run key ignores the seed on the resumed path")
	}

	cr := CompareRequest{
		Request:    resolved(Request{Benchmark: "grep"}),
		Predictors: []string{"two-bit", "gshare"},
	}
	if err := resolveCompare(&cr); err != nil {
		t.Fatal(err)
	}
	const wantCompare = "b03be75b1593a9f6a602b2a1a572dccfd8b68578648239454257ccaa40054c15"
	if got := cr.compareKey(keysOf(cr.Request).run); got != wantCompare {
		t.Errorf("compare key = %s, want %s", got, wantCompare)
	}
}

// TestRequestKeysConcurrentSuite derives every suite pair's keys from
// several goroutines at once, defaulted input racing to save and resume
// each dataset's digest, and checks each against the streamed keys of
// the same input given explicitly.
func TestRequestKeysConcurrentSuite(t *testing.T) {
	s := New()
	var pairs []Request
	for _, b := range suite.All() {
		for ds := range b.Data {
			pairs = append(pairs, Request{Benchmark: b.Name, Dataset: ds, Optimize: ds%2 == 1})
		}
	}
	want := make([]string, len(pairs))
	for i, req := range pairs {
		req.Input = append([]int64(nil), suite.Get(req.Benchmark).Data[req.Dataset].Input...)
		if err := s.resolve(&req); err != nil {
			t.Fatal(err)
		}
		_, _, want[i] = req.keys()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range pairs {
				if err := s.resolve(&req); err != nil {
					t.Error(err)
					return
				}
				if _, _, got := req.keys(); got != want[i] {
					t.Errorf("%s/%d: run key %s, want %s", req.Benchmark, req.Dataset, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

var keySink string

// BenchmarkRequestKeys derives the keys of one warm suite request, over
// every (benchmark, dataset) pair in turn with its default input: the
// per-request key cost of /v1/predict and /v1/compare.
func BenchmarkRequestKeys(b *testing.B) {
	s := New()
	var reqs []Request
	for _, bench := range suite.All() {
		for ds := range bench.Data {
			req := Request{Benchmark: bench.Name, Dataset: ds}
			if err := s.resolve(&req); err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, req)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, keySink = reqs[i%len(reqs)].keys()
	}
}
