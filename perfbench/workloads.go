package main

import (
	"context"
	"fmt"

	"neurotest"
	"neurotest/internal/diagnose"
	"neurotest/internal/fault"
	"neurotest/internal/faultsim"
	"neurotest/internal/snn"
	"neurotest/internal/tester"
	"neurotest/internal/variation"
)

// op is one timed unit of a workload: run is the timed call sequence, check
// the untimed correctness oracle, probe an untimed decomposition made in
// traced runs only.
type op struct {
	run   func(t *tracer) error
	check func() error
	probe func(t *tracer, counts map[string]float64) error
	// counts holds the op's deterministic outcome counts, set by run.
	counts map[string]float64
}

// plan is one set-up of a workload. op(i) builds the run's i-th op; it
// depends only on the seed and i, so a rebuilt plan continues the run's
// op sequence where the previous one left it.
type plan struct {
	op func(i int) *op
	// counts holds the set-up's deterministic counts.
	counts map[string]float64
}

// workload is one op shape. roundOps ops make a round, the unit over which
// rates and CPU are taken, of about half a second.
type workload struct {
	name     string
	roundOps int
	setup    func(seed uint64, t *tracer) (*plan, error)
}

var workloads = []workload{
	{"grade-synapse", 6, gradePlan(neurotest.SASF, neurotest.SWF)},
	{"grade-neuron", 256, gradePlan(neurotest.NASF, neurotest.ESF, neurotest.HSF)},
	{"population", 4, populationPlan},
	{"onboard", 10, onboardPlan},
}

// opRNG derives the generator of op i from the run seed.
func opRNG(seed uint64, i int) *neurotest.RNG {
	return neurotest.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1)
}

// generate is Model.GenerateSuite inside a core.generate span.
func generate(t *tracer, m *neurotest.Model, regime neurotest.Regime) (*neurotest.Suite, error) {
	var suite *neurotest.Suite
	var err error
	t.do("core.generate", func() { suite, err = m.GenerateSuite(regime) })
	return suite, err
}

// gradePlan is the Table 6 proposed block: one op grades the no-variation
// suite of the 4-layer model against the full universe of each of kinds, in
// order, each on a fresh ATE with ideal weights.
func gradePlan(kinds ...neurotest.FaultKind) func(uint64, *tracer) (*plan, error) {
	return func(seed uint64, t *tracer) (*plan, error) {
		m := neurotest.FourLayerModel()
		suite, err := generate(t, m, neurotest.NoVariation())
		if err != nil {
			return nil, err
		}
		p := &plan{counts: map[string]float64{"core.items": float64(suite.Merged.NumPatterns())}}
		p.op = func(i int) *op {
			rng := opRNG(seed, i)
			res := make([]neurotest.CoverageResult, len(kinds))
			o := &op{}
			o.run = func(t *tracer) error {
				faults := 0
				for j, k := range kinds {
					var err error
					if t == nil {
						res[j], err = m.MeasureCoverage(k, suite.PerKind[k], nil)
					} else {
						res[j], err = tracedCoverage(t, m, k, suite.PerKind[k])
					}
					if err != nil {
						return err
					}
					if len(res[j].Errors) > 0 {
						return res[j].Errors[0]
					}
					faults += res[j].Total
				}
				o.counts = map[string]float64{"fault.faults": float64(faults)}
				return nil
			}
			o.check = func() error {
				for j, k := range kinds {
					if want := fault.UniverseSize(m.Arch, k); res[j].Total != want || res[j].Detected != want {
						return fmt.Errorf("%v: coverage %d/%d of %d faults, want 100%%", k, res[j].Detected, res[j].Total, want)
					}
					if err := recheck(m, suite.PerKind[k], k, res[j], rng); err != nil {
						return err
					}
				}
				return nil
			}
			o.probe = func(t *tracer, counts map[string]float64) error {
				for j, k := range kinds {
					if err := faultsimProbe(t, counts, m, k, suite.PerKind[k], res[j]); err != nil {
						return err
					}
				}
				return nil
			}
			return o
		}
		return p, nil
	}
}

// tracedCoverage is Model.MeasureCoverage split into its public calls, each
// inside a span.
func tracedCoverage(t *tracer, m *neurotest.Model, kind neurotest.FaultKind, ts *neurotest.TestSet) (neurotest.CoverageResult, error) {
	var ate *neurotest.ATE
	t.do("tester.new_ate", func() { ate = m.NewATE(ts, nil) })
	var universe []neurotest.Fault
	t.do("fault.universe", func() { universe = m.Universe(kind) })
	t.do("faultsim.golden", func() { ate.Golden(0) })
	var res neurotest.CoverageResult
	var err error
	t.do("tester.coverage", func() { res, err = ate.MeasureCoverageContext(context.Background(), universe, m.Values) })
	return res, err
}

// faultsimProbe replays a campaign serially through the faultsim layer's
// own entry points, timing golden build, grouping and the packed kernel
// apart. Its verdicts must equal the campaign's.
func faultsimProbe(t *tracer, counts map[string]float64, m *neurotest.Model, kind neurotest.FaultKind, ts *neurotest.TestSet, res neurotest.CoverageResult) error {
	universe := m.Universe(kind)
	var g *faultsim.Golden
	t.do("faultsim.new_golden", func() { g = faultsim.NewGolden(ts, nil) })
	var groups [][]int
	t.do("faultsim.pack", func() { groups = faultsim.PackGroups(universe) })
	detected := make([]bool, len(universe))
	t.do("faultsim.kernel", func() {
		ev := g.NewEvaluator(m.Values)
		sub := make([]neurotest.Fault, 0, 64)
		for _, idx := range groups {
			sub = sub[:0]
			for _, i := range idx {
				sub = append(sub, universe[i])
			}
			for k, det := range ev.DetectsBatch(sub) {
				detected[idx[k]] = det
			}
		}
	})
	var undetected []neurotest.Fault
	for i, det := range detected {
		if !det {
			undetected = append(undetected, universe[i])
		}
	}
	if len(universe)-len(undetected) != res.Detected || len(undetected) != len(res.Undetected) {
		return fmt.Errorf("faultsim probe: %v: %d detected, campaign %d", kind, len(universe)-len(undetected), res.Detected)
	}
	for i := range undetected {
		if undetected[i] != res.Undetected[i] {
			return fmt.Errorf("faultsim probe: undetected fault %d is %v, campaign %v", i, undetected[i], res.Undetected[i])
		}
	}
	counts["faultsim.groups"] += float64(len(groups))
	counts["faultsim.probe_faults"] += float64(len(universe))
	return nil
}

// recheckSample is how many verdicts of each campaign are re-simulated.
const recheckSample = 3

// recheck re-simulates recheckSample seeded verdicts of a campaign with
// plain snn simulation: every item run with the fault's modifiers, compared
// with the fault-free response.
func recheck(m *neurotest.Model, ts *neurotest.TestSet, kind neurotest.FaultKind, res neurotest.CoverageResult, rng *neurotest.RNG) error {
	undetected := map[neurotest.Fault]bool{}
	for _, f := range res.Undetected {
		undetected[f] = true
	}
	sims := make([]*snn.Simulator, len(ts.Configs))
	golden := make([]*neurotest.Result, len(ts.Items))
	detects := func(f neurotest.Fault) bool {
		mods := f.Modifiers(m.Values)
		for i, it := range ts.Items {
			sim := sims[it.ConfigIndex]
			if sim == nil {
				sim = snn.NewSimulator(ts.Configs[it.ConfigIndex])
				sims[it.ConfigIndex] = sim
			}
			if golden[i] == nil {
				g := sim.Run(it.Pattern, it.Timesteps, it.Mode(), nil)
				golden[i] = &g
			}
			if !sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods).Equal(*golden[i]) {
				return true
			}
		}
		return false
	}
	for n := 0; n < recheckSample; n++ {
		f := randomFault(rng, m.Arch, kind)
		if got, want := detects(f), !undetected[f]; got != want {
			return fmt.Errorf("brute force: %v detected=%v, campaign says %v", f, got, want)
		}
	}
	return nil
}

// randomFault draws a uniform member of the universe of kind.
func randomFault(rng *neurotest.RNG, arch neurotest.Arch, kind neurotest.FaultKind) neurotest.Fault {
	if kind.IsNeuronFault() {
		i := rng.Intn(arch.HiddenAndOutputNeurons())
		l := 1
		for i >= arch[l] {
			i -= arch[l]
			l++
		}
		return fault.NewNeuronFault(kind, snn.NeuronID{Layer: l, Index: i})
	}
	i := rng.Intn(arch.Synapses())
	b := 0
	for i >= arch[b]*arch[b+1] {
		i -= arch[b] * arch[b+1]
		b++
	}
	return fault.NewSynapseFault(kind, snn.SynapseID{Boundary: b, Pre: i / arch[b+1], Post: i % arch[b+1]})
}

const (
	// sigmaFraction is the Fig. 4 point measured, σ as a fraction of θ.
	sigmaFraction = 0.1
	// chipsPerTally is the population of one escape or overkill tally.
	chipsPerTally = 8
	// escapePool is the Fig. 4 faulty-chip sample drawn at set-up.
	escapePool = 600
	// shardCheckEvery: one op in shardCheckEvery, drawn by seed, has one of
	// its tallies re-tallied as two shards whose merge must equal it.
	shardCheckEvery = 4
)

// populationPlan is the Fig. 4 proposed point at σ = 0.1θ: one op tallies
// the escape of chipsPerTally faulty chips and the overkill of
// chipsPerTally good chips against the variation-aware merged suite.
func populationPlan(seed uint64, t *tracer) (*plan, error) {
	m := neurotest.FourLayerModel()
	suite, err := generate(t, m, neurotest.NegligibleVariation())
	if err != nil {
		return nil, err
	}
	var ate *neurotest.ATE
	t.do("tester.new_split", func() { ate = tester.NewSplit(suite.Merged, nil, nil) })
	var pool []neurotest.Fault
	t.do("tester.sample_faults", func() { pool = tester.SampleFaults(m.Arch, fault.Kinds(), escapePool, seed+23) })
	vary := neurotest.VariationOfTheta(sigmaFraction, m.Params.Theta)
	goodSeed := seed*0xD6E8FEB86659FD93 + 37
	p := &plan{counts: map[string]float64{"core.items": float64(suite.Merged.NumPatterns())}}
	p.op = func(i int) *op {
		rng := opRNG(seed, i)
		faulty := rng.Perm(len(pool))[:chipsPerTally]
		escSeed := rng.Uint64()
		// Good-chip indices never repeat within a run.
		good := make([]int, chipsPerTally)
		for k := range good {
			good[k] = i*chipsPerTally + k
		}
		shardCheck := rng.Intn(shardCheckEvery) == 0
		shardEscape := rng.Intn(2) == 0
		split := rng.Perm(chipsPerTally)
		probeSeed := rng.Uint64()
		var esc, ok tester.ChipTally
		o := &op{}
		o.run = func(t *tracer) error {
			t.do("tester.escape", func() { esc = ate.EscapeTallyAt(pool, m.Values, faulty, vary, escSeed) })
			t.do("tester.overkill", func() { ok = ate.OverkillTallyAt(good, vary, goodSeed) })
			o.counts = map[string]float64{"tester.escape_hits": float64(esc.Hit), "tester.overkill_hits": float64(ok.Hit)}
			if errs := append(esc.Errors, ok.Errors...); len(errs) > 0 {
				return errs[0]
			}
			return nil
		}
		o.check = func() error {
			if esc.Clean != chipsPerTally || ok.Clean != chipsPerTally {
				return fmt.Errorf("%d escape and %d overkill chips of %d evaluated cleanly", esc.Clean, ok.Clean, chipsPerTally)
			}
			if esc.Hit != 0 {
				return fmt.Errorf("proposed suite let %d of %d faulty chips escape at σ = %gθ", esc.Hit, chipsPerTally, sigmaFraction)
			}
			if !shardCheck {
				return nil
			}
			idx, orig := good, ok
			if shardEscape {
				idx, orig = faulty, esc
			}
			var parts [2]tester.ChipTally
			for h := range parts {
				var shard []int
				for _, k := range split[h*chipsPerTally/2 : (h+1)*chipsPerTally/2] {
					shard = append(shard, idx[k])
				}
				if shardEscape {
					parts[h] = ate.EscapeTallyAt(pool, m.Values, shard, vary, escSeed)
				} else {
					parts[h] = ate.OverkillTallyAt(shard, vary, goodSeed)
				}
			}
			merged := tester.MergeChipTallies(parts[0], parts[1])
			if merged.Hit != orig.Hit || merged.Clean != orig.Clean || len(merged.Errors) > 0 {
				return fmt.Errorf("sharded re-tally %d/%d, original %d/%d", merged.Hit, merged.Clean, orig.Hit, orig.Clean)
			}
			return nil
		}
		o.probe = func(t *tracer, _ map[string]float64) error {
			for _, mods := range []*neurotest.Modifiers{pool[faulty[0]].Modifiers(m.Values), nil} {
				want := ate.RunChip(mods, vary, neurotest.NewRNG(probeSeed))
				if got := chipProbe(t, ate, mods, vary, neurotest.NewRNG(probeSeed)); got != want {
					return fmt.Errorf("RunChip replay: %+v, RunChip %+v", got, want)
				}
			}
			return nil
		}
		return o
	}
	return p, nil
}

// chipProbe tests one chip the way ATE.RunChip does, timing each variation
// and simulator call.
func chipProbe(t *tracer, ate *neurotest.ATE, mods *neurotest.Modifiers, vary neurotest.VariationModel, rng *neurotest.RNG) tester.Verdict {
	ts := ate.TestSet()
	var errs *variation.ErrorTensor
	t.do("variation.sample", func() { errs = vary.SampleError(ts.Arch, rng) })
	v := tester.Verdict{Passed: true, FailedItem: -1}
	cfg := -1
	var sim *snn.Simulator
	for i, it := range ts.Items {
		if it.ConfigIndex != cfg {
			var net *snn.Network
			t.do("variation.apply", func() { net = errs.ApplyTo(ts.Configs[it.ConfigIndex]) })
			t.do("snn.new_sim", func() { sim = snn.NewSimulator(net) })
			cfg = it.ConfigIndex
		}
		var res neurotest.Result
		t.do("snn.run", func() { res = sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods) })
		v.ItemsRun++
		if !res.Equal(ate.Golden(i)) {
			v.Passed, v.FailedItem = false, i
			return v
		}
	}
	return v
}

// onboardFaults is the number of faults one bring-up is graded against.
const onboardFaults = 2000

// onboardPlan is test-program bring-up of the 4-layer model: one op
// generates the suite, builds a diagnosis dictionary over the next
// onboardFaults faults of a seeded permutation of all five universes, and
// compacts the merged program against the same faults.
func onboardPlan(seed uint64, _ *tracer) (*plan, error) {
	m := neurotest.FourLayerModel()
	size := 0
	for _, k := range fault.Kinds() {
		size += fault.UniverseSize(m.Arch, k)
	}
	all := make([]neurotest.Fault, 0, size)
	for _, k := range fault.Kinds() {
		all = append(all, m.Universe(k)...)
	}
	perm := neurotest.NewRNG(seed ^ 0x5EED).Perm(len(all))
	g, err := m.Generator(neurotest.NoVariation())
	if err != nil {
		return nil, err
	}
	p := &plan{}
	p.op = func(i int) *op {
		faults := make([]neurotest.Fault, onboardFaults)
		for k := range faults {
			faults[k] = all[perm[(i*onboardFaults+k)%len(all)]]
		}
		var suite *neurotest.Suite
		var dict *neurotest.FaultDictionary
		var st neurotest.CompactionStats
		o := &op{}
		o.run = func(t *tracer) error {
			var err error
			if suite, err = generate(t, m, neurotest.NoVariation()); err != nil {
				return err
			}
			t.do("diagnose.build", func() { dict = m.BuildDictionary(suite.Merged, nil, faults) })
			t.do("compact.compact", func() { _, st = m.CompactTestSet(suite.Merged, nil, faults) })
			o.counts = map[string]float64{
				"core.items":            float64(suite.Merged.NumPatterns()),
				"diagnose.classes":      float64(dict.Classes()),
				"compact.items_removed": float64(st.ItemsBefore - st.ItemsAfter),
			}
			return nil
		}
		o.check = func() error {
			for _, k := range fault.Kinds() {
				ts, want := suite.PerKind[k], g.PredictedCounts(k)
				if ts.NumConfigs() != want || ts.NumPatterns() != want {
					return fmt.Errorf("%v: %d configs, %d patterns, Table 3 predicts %d", k, ts.NumConfigs(), ts.NumPatterns(), want)
				}
			}
			if dict.Total() != len(faults) || dict.Detected() != dict.Total() {
				return fmt.Errorf("dictionary detects %d of %d faults (%d graded)", dict.Detected(), dict.Total(), len(faults))
			}
			if st.Detected != dict.Total() {
				return fmt.Errorf("compaction keeps %d detected, dictionary %d", st.Detected, dict.Total())
			}
			return nil
		}
		o.probe = func(t *tracer, counts map[string]float64) error {
			return scalarProbe(t, counts, m, suite.Merged, faults, dict)
		}
		return o
	}
	return p, nil
}

// scalarProbe replays the fault-by-item matrix behind BuildDictionary with
// faultsim.New and DetectsOnItem. Every fault's signature must put it in
// the dictionary class the call put it in.
func scalarProbe(t *tracer, counts map[string]float64, m *neurotest.Model, ts *neurotest.TestSet, faults []neurotest.Fault, dict *neurotest.FaultDictionary) error {
	sigs := make([]diagnose.Signature, len(faults))
	t.do("faultsim.scalar", func() {
		eng := faultsim.New(ts, m.Values, nil)
		n := eng.NumItems()
		for fi, f := range faults {
			sigs[fi] = diagnose.NewSignature(n)
			for i := 0; i < n; i++ {
				if eng.DetectsOnItem(f, i) {
					sigs[fi].SetFail(i)
				}
			}
		}
		counts["faultsim.scalar_calls"] += float64(len(faults) * n)
	})
	for fi, f := range faults {
		found := false
		for _, c := range dict.Lookup(sigs[fi]) {
			found = found || c == f
		}
		if !found {
			return fmt.Errorf("scalar probe: %v has signature %v, not in its dictionary class", f, sigs[fi])
		}
	}
	counts["faultsim.scalar_probes"]++
	return nil
}
