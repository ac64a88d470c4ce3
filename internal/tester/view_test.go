package tester

import (
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// materialisedRunChip is the reference chip-under-test model RunChip must
// reproduce: sample the error tensor, then per configuration clone the
// network, add the tensor (variation.ErrorTensor.ApplyTo) and simulate it on
// a fresh simulator.
func materialisedRunChip(a *ATE, mods *snn.Modifiers, vary variation.Model, rng *stats.RNG) Verdict {
	errs := vary.SampleError(a.ts.Arch, rng)
	v := Verdict{Passed: true, FailedItem: -1}
	currentCfg := -1
	var sim *snn.Simulator
	for i, it := range a.ts.Items {
		if it.ConfigIndex != currentCfg {
			sim = snn.NewSimulator(errs.ApplyTo(a.nets[it.ConfigIndex]))
			currentCfg = it.ConfigIndex
		}
		res := sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods)
		v.ItemsRun++
		if !a.matches(res, a.goldenResult(i)) {
			v.Passed, v.FailedItem = false, i
			return v
		}
	}
	return v
}

// TestRunChipMatchesMaterialised checks the perturbed-view RunChip against
// the clone-then-add reference, chip by chip, across variation levels that
// span all-pass to all-fail, for good dies and for one die per fault of
// every kind. The per-worker scratch path (tallies) must agree with the
// reference too.
func TestRunChipMatchesMaterialised(t *testing.T) {
	arch := snn.Arch{8, 6, 4}
	g, merged := smallSuite(t, arch, core.NegligibleVariation())
	values := g.Options().Values
	ate := New(merged, nil)
	var faults []fault.Fault
	for _, kind := range fault.Kinds() {
		faults = append(faults, fault.Universe(arch, kind)...)
	}
	for _, frac := range []float64{0.05, 0.15, 0.3, 1.0} {
		vary := variation.OfTheta(frac, merged.Params.Theta)
		const seed = 31
		hits, fails := 0, 0
		for i, f := range faults {
			mods := f.Modifiers(values)
			want := materialisedRunChip(ate, mods, vary, stats.NewRNG(chipSeed(seed, i)))
			if got := ate.RunChip(mods, vary, stats.NewRNG(chipSeed(seed, i))); got != want {
				t.Fatalf("σ=%gθ %v: RunChip %+v, materialised %+v", frac, f, got, want)
			}
			if want.Passed {
				hits++
			}
			good := materialisedRunChip(ate, nil, vary, stats.NewRNG(chipSeed(seed, i)))
			if got := ate.RunChip(nil, vary, stats.NewRNG(chipSeed(seed, i))); got != good {
				t.Fatalf("σ=%gθ good chip %d: RunChip %+v, materialised %+v", frac, i, got, good)
			}
			if !good.Passed {
				fails++
			}
		}
		all := identityIndices(len(faults))
		esc := ate.EscapeTallyAt(faults, values, all, vary, seed)
		ovk := ate.OverkillTallyAt(all, vary, seed)
		if esc.Hit != hits || ovk.Hit != fails || esc.Clean != len(faults) || ovk.Clean != len(faults) {
			t.Fatalf("σ=%gθ: tallies escape %d/%d overkill %d/%d, reference %d and %d of %d",
				frac, esc.Hit, esc.Clean, ovk.Hit, ovk.Clean, hits, fails, len(faults))
		}
	}
}

// TestSessionScratchMatchesFreshSessions asserts the pooled session path,
// which reuses one simulator and error buffer per worker across chips,
// reproduces per-chip RunChipSession (fresh scratch every chip) exactly.
func TestSessionScratchMatchesFreshSessions(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NegligibleVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.SWF)
	values := g.Options().Values
	prof := unreliable.Profile{Intermittence: unreliable.Intermittence{P: 0.7}}
	policy := RetestPolicy{MaxRetests: 2, Vote: true}
	vary := variation.Model{Sigma: 0.08}
	const seed = 5
	mods := func(i int) *snn.Modifiers { return faults[i].Modifiers(values) }
	got := ate.MeasureSessions(len(faults), mods, prof, vary, policy, seed)
	var want SessionStats
	for i := range faults {
		want.Chips++
		want.add(ate.RunChipSession(mods(i), prof, vary, policy, chipSeed(seed, i)))
	}
	if !sameSessionInts(got, want) || got.Chips != want.Chips || len(got.Errors) != 0 {
		t.Fatalf("pooled sessions %+v, fresh sessions %+v", got, want)
	}
}

// spreadProgram builds a 20-item program over nCfg configurations (20/nCfg
// consecutive items each) with random weights, so RunChip work per item is
// the same whatever the configuration count.
func spreadProgram(nCfg int) *pattern.TestSet {
	arch := snn.Arch{24, 16, 8}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("spread", arch, params)
	rng := stats.NewRNG(11)
	for c := 0; c < nCfg; c++ {
		net := snn.New(arch, params)
		for b := range net.W {
			for i := range net.W[b] {
				net.W[b][i] = params.Theta * (rng.Float64() - 0.3)
			}
		}
		ci := ts.AddConfig(net)
		for k := 0; k < 20/nCfg; k++ {
			p := snn.NewPattern(arch.Inputs())
			for i := range p {
				p[i] = rng.Intn(2) == 0
			}
			ts.AddItem(pattern.Item{ConfigIndex: ci, Pattern: p, Timesteps: 4, Repeat: 1})
		}
	}
	return ts
}

// TestRunChipAllocsIndependentOfConfigs is the allocation guard of the
// perturbed view: a chip with variation costs the same allocations whether
// its 20 items span 2 configurations or 20 — no per-configuration network
// or simulator is built.
func TestRunChipAllocsIndependentOfConfigs(t *testing.T) {
	// A negligible σ keeps every chip passing, so both programs run all 20
	// items and differ only in how often a configuration is programmed.
	vary := variation.Model{Sigma: 1e-12}
	allocs := map[int]float64{}
	for _, nCfg := range []int{2, 20} {
		ate := New(spreadProgram(nCfg), nil)
		if v := ate.RunChip(nil, vary, stats.NewRNG(1)); !v.Passed || v.ItemsRun != 20 {
			t.Fatalf("%d configs: verdict %+v, want all 20 items passing", nCfg, v)
		}
		allocs[nCfg] = testing.AllocsPerRun(20, func() {
			ate.RunChip(nil, vary, stats.NewRNG(1))
		})
	}
	if allocs[2] != allocs[20] {
		t.Errorf("RunChip allocs: %v with 2 configs, %v with 20 — allocations scale with configurations", allocs[2], allocs[20])
	}
}

// verdictSink keeps BenchmarkRunChip's calls observable to the compiler.
var verdictSink Verdict

// BenchmarkRunChip tests one chip under σ = 0.1θ against the proposed
// merged program of the paper's 4-layer model: the unit of work of every
// Figure 4 population campaign. "view" is RunChip; "materialised" the
// clone-then-add reference it replaced.
func BenchmarkRunChip(b *testing.B) {
	params := snn.DefaultParams()
	gen, err := core.NewGenerator(core.Options{
		Arch:   snn.Arch{576, 256, 32, 10},
		Params: params,
		Values: fault.PaperValues(params.Theta),
		Regime: core.NegligibleVariation(),
	})
	if err != nil {
		b.Fatal(err)
	}
	_, merged := gen.GenerateAll()
	ate := New(merged, nil)
	vary := variation.OfTheta(0.1, params.Theta)
	ate.RunChip(nil, vary, stats.NewRNG(0)) // build goldens before timing
	for _, bc := range []struct {
		name string
		run  func(rng *stats.RNG) Verdict
	}{
		{"view", func(rng *stats.RNG) Verdict { return ate.RunChip(nil, vary, rng) }},
		{"materialised", func(rng *stats.RNG) Verdict { return materialisedRunChip(ate, nil, vary, rng) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				verdictSink = bc.run(stats.NewRNG(uint64(i)))
			}
		})
	}
}
