package eval

import (
	"context"
	"fmt"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/freq"
	"ballarus/internal/interp"
	"ballarus/internal/service"
	"ballarus/internal/stats"
	"ballarus/internal/suite"
)

// FreqRow is one benchmark's static-profile-estimation quality.
type FreqRow struct {
	Name      string
	Estimator freq.Quality
	Uniform   freq.Quality
	Random    freq.Quality
}

// FreqQuality runs the profile-estimation extension over the suite: how
// well do Ball-Larus predictions estimate block execution frequencies
// without running the program (the application Wall evaluated with
// "poor results" for his estimators)?
func (e *Evaluator) FreqQuality() ([]FreqRow, error) {
	benches := suite.All()
	rows := make([]FreqRow, len(benches))
	err := fan(context.Background(), len(benches), func(i int) error {
		b := benches[i]
		a, err := e.Analysis(b)
		if err != nil {
			return err
		}
		res, err := interp.Run(a.Prog, interp.Config{
			Input:              b.Data[0].Input,
			Budget:             b.Budget,
			CollectInstrCounts: true,
		})
		if err != nil {
			return fmt.Errorf("eval: freq %s: %w", b.Name, err)
		}
		act := freq.Actual(a, res.InstrCounts)
		rows[i] = FreqRow{
			Name:      b.Name,
			Estimator: freq.Evaluate(a, freq.Estimate(a, core.DefaultOrder, freq.Options{}), act),
			Uniform:   freq.Evaluate(a, freq.Uniform(a), act),
			Random:    freq.Evaluate(a, freq.Random(a), act),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FreqTable renders the extension results.
func (e *Evaluator) FreqTable() (string, error) {
	rows, err := e.FreqQuality()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: static profile estimation from predictions (Spearman / top-25% overlap)")
	t.row("Program", "Estimator", "Uniform", "Random")
	var es, us, rs []float64
	for _, r := range rows {
		t.row(r.Name,
			fmt.Sprintf("%.2f %.2f", r.Estimator.Spearman, r.Estimator.Overlap),
			fmt.Sprintf("%.2f %.2f", r.Uniform.Spearman, r.Uniform.Overlap),
			fmt.Sprintf("%.2f %.2f", r.Random.Spearman, r.Random.Overlap))
		es = append(es, r.Estimator.Spearman)
		us = append(us, r.Uniform.Spearman)
		rs = append(rs, r.Random.Spearman)
	}
	t.row("MEAN",
		fmt.Sprintf("%.2f", stats.Mean(es)),
		fmt.Sprintf("%.2f", stats.Mean(us)),
		fmt.Sprintf("%.2f", stats.Mean(rs)))
	return t.String(), nil
}

// CrossProfileRow compares program-based prediction against profile-based
// prediction where the profile comes from a *different* dataset — the
// Fisher-Freudenberger methodology the paper benchmarks itself against
// ("program-based prediction is a factor of two worse, on the average,
// than profile-based prediction").
type CrossProfileRow struct {
	Name        string
	ProgramMiss float64 // Ball-Larus heuristic, all branches, dataset B
	CrossMiss   float64 // perfect predictor trained on dataset A, applied to B
	SelfMiss    float64 // perfect predictor on dataset B itself (lower bound)
}

// CrossProfile runs the comparison for every benchmark with at least two
// datasets: train on dataset 0, test on dataset 1.
func (e *Evaluator) CrossProfile() ([]CrossProfileRow, error) {
	var benches []*suite.Benchmark
	for _, b := range suite.All() {
		if len(b.Data) >= 2 {
			benches = append(benches, b)
		}
	}
	rows := make([]CrossProfileRow, len(benches))
	err := fan(context.Background(), len(benches), func(i int) error {
		b := benches[i]
		a, err := e.Analysis(b)
		if err != nil {
			return err
		}
		train, err := e.Run(b, 0, false)
		if err != nil {
			return err
		}
		test, err := e.Run(b, 1, false)
		if err != nil {
			return err
		}
		// Profile-based static predictions from the training run.
		crossPreds := make([]core.Prediction, len(a.Branches))
		for id := range crossPreds {
			if train.Profile.PerfectTaken(id) {
				crossPreds[id] = core.PredTaken
			} else {
				crossPreds[id] = core.PredFall
			}
		}
		prog := test.AllMissRate(a.Predictions(core.DefaultOrder))
		cross := test.AllMissRate(crossPreds)
		rows[i] = CrossProfileRow{
			Name:        b.Name,
			ProgramMiss: prog.Pred,
			CrossMiss:   cross.Pred,
			SelfMiss:    cross.Perfect,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// CrossProfileTable renders the comparison.
func (e *Evaluator) CrossProfileTable() (string, error) {
	rows, err := e.CrossProfile()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: program-based vs cross-dataset profile-based prediction (all-branch miss %)")
	t.row("Program", "ProgramBased", "ProfileBased", "SelfPerfect")
	var ps, cs, ss []float64
	for _, r := range rows {
		t.row(r.Name, pct(r.ProgramMiss), pct(r.CrossMiss), pct(r.SelfMiss))
		ps = append(ps, r.ProgramMiss)
		cs = append(cs, r.CrossMiss)
		ss = append(ss, r.SelfMiss)
	}
	t.row("MEAN", pct(stats.Mean(ps)), pct(stats.Mean(cs)), pct(stats.Mean(ss)))
	return t.String(), nil
}

// DynPredRow compares static predictors against the dynamic hardware
// predictors of the paper's related work on one benchmark's trace.
type DynPredRow struct {
	Name    string
	Heur    float64 // Ball-Larus program-based static, miss %
	Perfect float64 // profile-based static (perfect for this run)
	OneBit  float64 // per-branch last-direction hardware predictor
	TwoBit  float64 // per-branch two-bit saturating counter
	Bimodal float64 // shared PC-indexed counter table (no suite program aliases it)
	Gshare  float64 // global history XOR PC (McFarling)
	Tage    float64 // tagged geometric-history tables (Seznec)
}

// dynRowBackends maps the registry's dynamic backends onto DynPredRow
// fields, in display order.
var dynRowBackends = []struct {
	name  string
	field func(*DynPredRow) *float64
}{
	{dynpred.NameOneBit, func(r *DynPredRow) *float64 { return &r.OneBit }},
	{dynpred.NameTwoBit, func(r *DynPredRow) *float64 { return &r.TwoBit }},
	{dynpred.NameBimodal, func(r *DynPredRow) *float64 { return &r.Bimodal }},
	{dynpred.NameGshare, func(r *DynPredRow) *float64 { return &r.Gshare }},
	{dynpred.NameTAGE, func(r *DynPredRow) *float64 { return &r.Tage }},
}

// DynPred runs every benchmark's default dataset once through the
// service's tournament scorer, streaming its branch events into each
// registered dynamic backend beside the static pair — quantifying
// McFarling & Hennessy's claim (profile-based static ≈ dynamic
// hardware) and how far history-based predictors push past both.
func (e *Evaluator) DynPred() ([]DynPredRow, error) {
	backends := make([]string, len(dynRowBackends))
	for i, be := range dynRowBackends {
		backends[i] = be.name
	}
	benches := suite.All()
	rows := make([]DynPredRow, len(benches))
	err := fan(context.Background(), len(benches), func(i int) error {
		b := benches[i]
		a, err := e.Analysis(b)
		if err != nil {
			return err
		}
		t, err := service.Tournament(a, a.Predictions(core.DefaultOrder), backends, 0,
			interp.Config{Input: b.Data[0].Input, Budget: b.Budget})
		if err != nil {
			return fmt.Errorf("eval: %s/%s: %w", b.Name, b.Data[0].Name, err)
		}
		rate := map[string]float64{}
		for _, p := range t.Predictors {
			rate[p.Name] = p.MissRatePct
		}
		rows[i] = DynPredRow{
			Name:    b.Name,
			Heur:    rate[service.CompareStatic],
			Perfect: rate[service.ComparePerfect],
		}
		for _, be := range dynRowBackends {
			*be.field(&rows[i]) = rate[be.name]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// DynPredTable renders the comparison.
func (e *Evaluator) DynPredTable() (string, error) {
	rows, err := e.DynPred()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: static vs dynamic hardware predictors (miss %)")
	t.row("Program", "BallLarus", "PerfectStatic", "1-bit", "2-bit", "Bimodal", "Gshare", "TAGE")
	for _, r := range rows {
		t.missRow(r.Name, r.Heur, r.Perfect, r.OneBit, r.TwoBit, r.Bimodal, r.Gshare, r.Tage)
	}
	t.meanRow()
	return t.String(), nil
}

// AblationRow is one benchmark's all-branch miss % under the
// Ball-Larus predictor, its alternatives, and its analysis ablations.
type AblationRow struct {
	Name      string
	BallLarus float64 // the paper's priority order
	Voting    float64 // weighted-vote combiner
	BTFNT     float64 // backward taken, forward not taken
	LoopRand  float64 // loop predictor, random elsewhere
	NoPostdom float64 // analysis without the postdominator checks
	DeepGuard float64 // analysis with guard depth 3
}

// Ablation computes the ablation rows from the cached default runs. The
// NoPostdom and DeepGuard columns re-analyze each run's program and join
// the result with that run's profile: the options change predictions,
// never execution.
func (e *Evaluator) Ablation() ([]AblationRow, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(runs))
	err = fan(context.Background(), len(runs), func(i int) error {
		r := runs[i]
		loose, err := core.Analyze(r.Prog, core.Options{NoPostdom: true})
		if err != nil {
			return err
		}
		deep, err := core.Analyze(r.Prog, core.Options{GuardDepth: 3})
		if err != nil {
			return err
		}
		miss := func(preds []core.Prediction) float64 { return r.AllMissRate(preds).Pred }
		rows[i] = AblationRow{
			Name:      r.Bench.Name,
			BallLarus: miss(r.Analysis.Predictions(core.DefaultOrder)),
			Voting:    miss(r.Analysis.VotePredictions(core.DefaultWeights)),
			BTFNT:     miss(r.Analysis.BTFNTPredictions()),
			LoopRand:  miss(r.Analysis.LoopRandPredictions()),
			NoPostdom: miss(loose.Predictions(core.DefaultOrder)),
			DeepGuard: miss(deep.Predictions(core.DefaultOrder)),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationTable renders the DESIGN.md ablations as one table: the
// Ball-Larus predictor vs BTFNT, and strict vs NoPostdom analysis.
func (e *Evaluator) AblationTable() (string, error) {
	rows, err := e.Ablation()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: ablations and alternative combiner (all-branch miss %)")
	t.row("Program", "BallLarus", "Voting", "BTFNT", "Loop+Rand", "NoPostdom", "DeepGuard")
	for _, r := range rows {
		t.missRow(r.Name, r.BallLarus, r.Voting, r.BTFNT, r.LoopRand, r.NoPostdom, r.DeepGuard)
	}
	t.meanRow()
	return t.String(), nil
}
