package faultsim

import (
	"math/bits"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

// randomTestSetT is randomTestSet with a configurable window and input mode.
func randomTestSetT(arch snn.Arch, nConfigs, patternsPer int, seed uint64, timesteps int, hold bool) *pattern.TestSet {
	params := snn.DefaultParams()
	rng := stats.NewRNG(seed)
	ts := pattern.NewTestSet("random", arch, params)
	for c := 0; c < nConfigs; c++ {
		cfg := snn.New(arch, params)
		for b := range cfg.W {
			for i := range cfg.W[b] {
				cfg.W[b][i] = -10 + 20*rng.Float64()
			}
		}
		ci := ts.AddConfig(cfg)
		for p := 0; p < patternsPer; p++ {
			pat := snn.NewPattern(arch.Inputs())
			for i := range pat {
				pat[i] = rng.Float64() < 0.4
			}
			ts.AddItem(pattern.Item{
				Label:       "rnd",
				ConfigIndex: ci,
				Pattern:     pat,
				Timesteps:   timesteps,
				Hold:        hold,
				Repeat:      1,
			})
		}
	}
	return ts
}

// fullUniverse concatenates every kind's universe.
func fullUniverse(arch snn.Arch) []fault.Fault {
	var universe []fault.Fault
	for _, kind := range fault.Kinds() {
		universe = append(universe, fault.Universe(arch, kind)...)
	}
	return universe
}

// bruteForceOnItems re-simulates f on every item of ts with plain snn
// simulation and reports, per item, whether the faulty response differs
// from the good one.
func bruteForceOnItems(ts *pattern.TestSet, values fault.Values, f fault.Fault) []bool {
	out := make([]bool, len(ts.Items))
	mods := f.Modifiers(values)
	for i, it := range ts.Items {
		sim := snn.NewSimulator(ts.Configs[it.ConfigIndex])
		golden := sim.Run(it.Pattern, it.Timesteps, it.Mode(), nil)
		out[i] = !sim.Run(it.Pattern, it.Timesteps, it.Mode(), mods).Equal(golden)
	}
	return out
}

// assertMatrixAgrees checks DetectMatrix bit by bit: every row has
// ceil(items/64) words with no bit past the last item, and each (fault,
// item) bit equals the scalar DetectsOnItem verdict and the per-item brute
// force one.
func assertMatrixAgrees(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) {
	t.Helper()
	g := NewGolden(ts, nil)
	scalar := g.NewEvaluator(values)
	rows := g.NewEvaluator(values).DetectMatrix(universe)
	n := len(ts.Items)
	if len(rows) != len(universe) {
		t.Fatalf("DetectMatrix returned %d rows for %d faults", len(rows), len(universe))
	}
	for fi, f := range universe {
		row := rows[fi]
		if len(row) != (n+63)/64 {
			t.Fatalf("%v: row of %d words for %d items", f, len(row), n)
		}
		if n%64 != 0 && row[len(row)-1]>>uint(n%64) != 0 {
			t.Fatalf("%v: bits set past item %d: %x", f, n-1, row[len(row)-1])
		}
		brute := bruteForceOnItems(ts, values, f)
		for it := 0; it < n; it++ {
			got := row[it/64]&(1<<uint(it%64)) != 0
			if want := scalar.DetectsOnItem(f, it); got != want {
				t.Errorf("%v item %d: matrix=%v scalar=%v", f, it, got, want)
			}
			if got != brute[it] {
				t.Errorf("%v item %d: matrix=%v brute=%v", f, it, got, brute[it])
			}
		}
	}
}

// assertPackedAgrees runs the whole universe through the packed kernel, the
// scalar reference evaluator and brute-force simulation and fails on any
// verdict disagreement, for both the per-fault verdicts of DetectsBatch and
// the per-item bitsets of DetectMatrix.
func assertPackedAgrees(t *testing.T, ts *pattern.TestSet, values fault.Values, universe []fault.Fault) {
	t.Helper()
	g := NewGolden(ts, nil)
	scalar := g.NewEvaluator(values)
	packed := g.NewEvaluator(values)
	got := packed.DetectsBatch(universe)
	if len(got) != len(universe) {
		t.Fatalf("DetectsBatch returned %d verdicts for %d faults", len(got), len(universe))
	}
	for i, f := range universe {
		want := scalar.Detects(f)
		if got[i] != want {
			t.Errorf("%v: packed=%v scalar=%v", f, got[i], want)
		}
		if brute := bruteForceMode(ts, values, f); want != brute {
			t.Errorf("%v: scalar=%v brute=%v", f, want, brute)
		}
	}
	assertMatrixAgrees(t, ts, values, universe)
}

// TestDetectMatrixMemoAccounting: on a fresh Golden, DetectMatrix publishes
// exactly the memo hits and misses of the scalar fault-by-item matrix it
// replaces. Both totals are order-independent — every deviating (fault,
// item) pair is one lookup, and a miss is the first lookup of a distinct
// (item, layer, neuron, train) key — so they must agree however the packed
// kernel groups and orders its lanes.
func TestDetectMatrixMemoAccounting(t *testing.T) {
	values := fault.PaperValues(0.5)
	for ai, arch := range []snn.Arch{{5, 4, 3, 2}, {6, 5, 4, 3, 2}} {
		ts := randomTestSet(arch, 3, 4, uint64(700+ai))
		universe := fullUniverse(arch)

		scalar := New(ts, values, nil)
		before := Snapshot()
		for _, f := range universe {
			for it := 0; it < scalar.NumItems(); it++ {
				scalar.DetectsOnItem(f, it)
			}
		}
		want := statsDelta(Snapshot(), before)

		packed := New(ts, values, nil)
		before = Snapshot()
		packed.DetectMatrix(universe)
		got := statsDelta(Snapshot(), before)
		if got.MemoHits != want.MemoHits || got.MemoMisses != want.MemoMisses {
			t.Errorf("%v: DetectMatrix published hits=%d misses=%d, scalar matrix hits=%d misses=%d",
				arch, got.MemoHits, got.MemoMisses, want.MemoHits, want.MemoMisses)
		}
		if want.MemoMisses == 0 || want.MemoHits == 0 {
			t.Errorf("%v: fixture exercises no memo traffic (hits=%d misses=%d)", arch, want.MemoHits, want.MemoMisses)
		}
		if got.FaultsSimulated != int64(len(universe)) {
			t.Errorf("%v: DetectMatrix counted %d faults simulated, want %d", arch, got.FaultsSimulated, len(universe))
		}
	}
}

// TestPackedMatchesScalarAndBrute is the packed kernel's load-bearing
// differential test: on random configurations and patterns, every fault of
// every model must get the same verdict from the packed kernel, the scalar
// evaluator and full brute-force simulation.
func TestPackedMatchesScalarAndBrute(t *testing.T) {
	values := fault.PaperValues(0.5)
	arches := []snn.Arch{
		{4, 3, 2},
		{5, 4, 3, 2},
		{3, 1, 3}, // width-1 bottleneck
		{6, 5, 4, 3, 2},
	}
	for ai, arch := range arches {
		ts := randomTestSet(arch, 3, 4, uint64(500+ai))
		assertPackedAgrees(t, ts, values, fullUniverse(arch))
	}
}

// TestPackedSharesMemoWithScalar asserts the two paths speak the same memo:
// verdicts computed by a scalar evaluator must be served as hits to a
// packed evaluator over the same Golden, and vice versa.
func TestPackedSharesMemoWithScalar(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{5, 4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 77)
	universe := fault.Universe(arch, fault.ESF)

	g := NewGolden(ts, nil)
	scalar := g.NewEvaluator(values)
	want := make([]bool, len(universe))
	for i, f := range universe {
		want[i] = scalar.Detects(f)
	}

	before := Snapshot()
	packed := g.NewEvaluator(values)
	got := packed.DetectsBatch(universe)
	d := statsDelta(Snapshot(), before)
	for i := range universe {
		if got[i] != want[i] {
			t.Errorf("%v: packed=%v scalar=%v", universe[i], got[i], want[i])
		}
	}
	if d.MemoMisses != 0 {
		t.Errorf("packed re-ran %d downstream passes the scalar path already memoized", d.MemoMisses)
	}
}

// TestPackGroupsPartition pins the grouping contract: every input index
// appears exactly once, groups are ≤64 lanes, homogeneous in kind and
// source layer, and ordered first-seen.
func TestPackGroupsPartition(t *testing.T) {
	arch := snn.Arch{6, 5, 4, 3}
	universe := fullUniverse(arch)
	groups := PackGroups(universe)
	seen := make([]bool, len(universe))
	last := -1
	for _, g := range groups {
		if len(g) == 0 || len(g) > 64 {
			t.Fatalf("group size %d out of range", len(g))
		}
		kind := universe[g[0]].Kind
		layer := sourceLayer(universe[g[0]])
		for _, i := range g {
			if seen[i] {
				t.Fatalf("index %d in two groups", i)
			}
			seen[i] = true
			if universe[i].Kind != kind || sourceLayer(universe[i]) != layer {
				t.Fatalf("group mixes (%v, %d) with (%v, %d)", kind, layer, universe[i].Kind, sourceLayer(universe[i]))
			}
		}
		if g[0] < last {
			t.Fatalf("groups not in first-seen order")
		}
		last = g[0]
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing from all groups", i)
		}
	}
}

// TestPackedT64Boundary exercises the full T == MaxTimesteps window end to
// end: bit 63 spikes must survive fullMask, reintegrate, the packed train
// patching and the monotone early-exit. The engineered fixture guarantees
// golden activity in the last timestep and at least one fault whose faulty
// train deviates in bit 63; the random fixtures add breadth.
func TestPackedT64Boundary(t *testing.T) {
	values := fault.PaperValues(0.5)

	t.Run("pinned", func(t *testing.T) {
		if fullMask(snn.MaxTimesteps) != ^uint64(0) {
			t.Fatalf("fullMask(%d) = %x", snn.MaxTimesteps, fullMask(snn.MaxTimesteps))
		}

		// Deterministically scan seeds for a one-item fixture that actually
		// exercises the boundary: golden spikes reach the output layer in
		// timestep 63 AND some fault's patched site train deviates in
		// timestep 63, so reintegrate, the packed patching and the final
		// front all see bit 63.
		const bit63 = uint64(1) << 63
		arch := snn.Arch{3, 3, 2}
		universe := fullUniverse(arch)
		var ts *pattern.TestSet
		for seed := uint64(0); seed < 200; seed++ {
			cand := randomTestSetT(arch, 1, 1, seed, snn.MaxTimesteps, true)
			g := NewGolden(cand, nil)
			ic := &g.items[0]
			out63 := false
			for _, train := range ic.trace.X[len(arch)-1] {
				if train&bit63 != 0 {
					out63 = true
				}
			}
			if !out63 {
				continue
			}
			e := g.NewEvaluator(values)
			dev63 := false
			for _, f := range universe {
				layer, index, train, ok := e.faultSite(ic, f)
				if ok && (train^ic.trace.X[layer][index])&bit63 != 0 {
					dev63 = true
					break
				}
			}
			if dev63 {
				ts = cand
				break
			}
		}
		if ts == nil {
			t.Fatal("no seed produced bit-63 output activity plus a bit-63 site deviation")
		}

		assertPackedAgrees(t, ts, values, universe)
	})

	t.Run("random", func(t *testing.T) {
		for seed := uint64(0); seed < 3; seed++ {
			ts := randomTestSetT(snn.Arch{4, 3, 3, 2}, 2, 2, 900+seed, snn.MaxTimesteps, true)
			assertPackedAgrees(t, ts, values, fullUniverse(snn.Arch{4, 3, 3, 2}))
		}
	})
}

// TestInertTrainSkipsMemo pins the inert-train shortcut: a fault whose
// reintegrated train equals the recorded golden train is behaviourally
// inert on that item, so the evaluator must report false WITHOUT running or
// memoizing a no-op downstream propagation. The unshortcut path would
// record one memo miss per (fault, item); the shortcut records none.
func TestInertTrainSkipsMemo(t *testing.T) {
	// Every weight is 5 and both inputs spike once, so the hidden neurons
	// fire in t=0 with or without one extra SWF/SASF delta — the faulty
	// trains equal the golden trains while the deltas themselves are far
	// from zero.
	values := fault.Values{ESFTheta: 0.05, HSFTheta: 0.95, SWFOmega: 7}
	arch := snn.Arch{2, 2, 2}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("inert", arch, params)
	cfg := snn.New(arch, params)
	cfg.Fill(5)
	ci := ts.AddConfig(cfg)
	ts.AddItem(pattern.Item{Label: "p", ConfigIndex: ci, Pattern: snn.OnesPattern(2), Timesteps: 1, Repeat: 1})

	universe := fault.Universe(arch, fault.SWF)
	// Restrict to boundary-0 faults: their site is the hidden layer, where
	// an unshortcut evaluation would reach the downstream memo.
	var hidden []fault.Fault
	for _, f := range universe {
		if f.Synapse.Boundary == 0 {
			hidden = append(hidden, f)
		}
	}
	if len(hidden) == 0 {
		t.Fatal("fixture broken: no boundary-0 SWF faults")
	}

	eng := New(ts, values, nil)
	// Precondition: the faults are NOT value-inert (ω̂ differs from the
	// programmed weight), their trains just happen to match the golden.
	ic := &eng.g.items[0]
	for _, f := range hidden {
		layer, index, train, ok := eng.faultSite(ic, f)
		if !ok {
			t.Fatalf("%v: fixture broken, fault is value-inert", f)
		}
		if train != ic.trace.X[layer][index] {
			t.Fatalf("%v: fixture broken, train %x deviates from golden %x", f, train, ic.trace.X[layer][index])
		}
	}

	scalarVerdicts := detectsEach(eng, hidden)
	packedVerdicts := eng.DetectsBatch(hidden)
	for i, f := range hidden {
		if scalarVerdicts[i] {
			t.Errorf("scalar: %v detected despite an inert train", f)
		}
		if packedVerdicts[i] {
			t.Errorf("packed: %v detected despite an inert train", f)
		}
		if bruteForceMode(ts, values, f) {
			t.Errorf("brute force disagrees that %v is inert", f)
		}
	}

	// The shortcut's observable contract: no downstream pass ran, nothing
	// was memoized.
	before := Snapshot()
	fresh := New(ts, values, nil)
	for _, f := range hidden {
		if fresh.Detects(f) {
			t.Errorf("%v detected on fresh engine", f)
		}
	}
	freshPacked := fresh.g.NewEvaluator(values)
	freshPacked.DetectsBatch(hidden)
	d := statsDelta(Snapshot(), before)
	if d.MemoMisses != 0 || d.MemoHits != 0 {
		t.Errorf("inert trains touched the memo: hits=%d misses=%d (want 0, 0)", d.MemoHits, d.MemoMisses)
	}
	if want := int64(2 * len(hidden)); d.FaultsSimulated != want {
		t.Errorf("faults simulated = %d, want %d", d.FaultsSimulated, want)
	}
}

// detectsEach runs the scalar Detects per fault.
func detectsEach(e *Evaluator, faults []fault.Fault) []bool {
	out := make([]bool, len(faults))
	for i, f := range faults {
		out[i] = e.Detects(f)
	}
	return out
}

// TestBatchFlushesObs mirrors TestDetectsOnItemFlushesObs for the batch
// entry points: one DetectsBatch call over a one-item set must flush the
// evaluator-local memo statistics, count every fault exactly once, and
// publish the same memo traffic as the equivalent scalar scan.
func TestBatchFlushesObs(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	ts := randomTestSet(arch, 1, 1, 11)
	universe := fault.Universe(arch, fault.SWF)

	e1 := New(ts, values, nil)
	before := Snapshot()
	e1.DetectsBatch(universe)
	batch := statsDelta(Snapshot(), before)
	if e1.pendingMemoHits != 0 || e1.pendingMemoMisses != 0 {
		t.Errorf("pending stats not flushed: hits=%d misses=%d",
			e1.pendingMemoHits, e1.pendingMemoMisses)
	}
	if batch.FaultsSimulated != int64(len(universe)) {
		t.Errorf("faults simulated = %d, want %d (every fault of the batch)",
			batch.FaultsSimulated, len(universe))
	}

	// The same workload fault-at-a-time on a fresh engine: identical work,
	// so the published memo statistics must agree.
	e2 := New(ts, values, nil)
	before = Snapshot()
	for _, f := range universe {
		e2.Detects(f)
	}
	scan := statsDelta(Snapshot(), before)
	if batch.MemoHits != scan.MemoHits || batch.MemoMisses != scan.MemoMisses {
		t.Errorf("batch published hits=%d misses=%d; scan published hits=%d misses=%d",
			batch.MemoHits, batch.MemoMisses, scan.MemoHits, scan.MemoMisses)
	}
	if batch.FaultsSimulated != scan.FaultsSimulated {
		t.Errorf("faults simulated: batch %d != scan %d", batch.FaultsSimulated, scan.FaultsSimulated)
	}

	// Coverage and Undetected route through the batch path and flush too.
	e3 := New(ts, values, nil)
	before = Snapshot()
	e3.Coverage(universe)
	e3.Undetected(universe)
	cov := statsDelta(Snapshot(), before)
	if e3.pendingMemoHits != 0 || e3.pendingMemoMisses != 0 {
		t.Errorf("Coverage/Undetected left pending stats: hits=%d misses=%d",
			e3.pendingMemoHits, e3.pendingMemoMisses)
	}
	if want := int64(2 * len(universe)); cov.FaultsSimulated != want {
		t.Errorf("faults simulated = %d, want %d (two batch calls)", cov.FaultsSimulated, want)
	}
}

// TestCoverageBatchMatchesScalarCount cross-checks the packed counting APIs
// (Coverage, Undetected) against the scalar count on a larger mixed
// universe.
func TestCoverageBatchMatchesScalarCount(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{5, 4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 41)
	universe := fullUniverse(arch)

	g := NewGolden(ts, nil)
	scalar := g.NewEvaluator(values)
	n := 0
	for _, f := range universe {
		if scalar.Detects(f) {
			n++
		}
	}
	if got := g.NewEvaluator(values).Coverage(universe); got != n {
		t.Errorf("Coverage = %d, scalar count = %d", got, n)
	}
	missed := g.NewEvaluator(values).Undetected(universe)
	if len(missed) != len(universe)-n {
		t.Errorf("Undetected = %d faults, want %d", len(missed), len(universe)-n)
	}
}

// FuzzPackedEquivalence fuzzes the packed-vs-scalar-vs-brute agreement, for
// verdicts and for DetectMatrix's per-item bits, over random seeds, window
// lengths (including the 64-timestep boundary) and input modes.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(5), false)
	f.Add(uint64(2), uint8(64), true)
	f.Add(uint64(3), uint8(63), false)
	f.Add(uint64(99), uint8(1), true)
	arch := snn.Arch{4, 3, 3, 2}
	values := fault.PaperValues(0.5)
	f.Fuzz(func(t *testing.T, seed uint64, t8 uint8, hold bool) {
		T := 1 + int(t8)%snn.MaxTimesteps
		ts := randomTestSetT(arch, 2, 2, seed, T, hold)
		universe := fullUniverse(arch)
		g := NewGolden(ts, nil)
		scalar := g.NewEvaluator(values)
		packed := g.NewEvaluator(values)
		got := packed.DetectsBatch(universe)
		rows := packed.DetectMatrix(universe)
		for i, flt := range universe {
			want := scalar.Detects(flt)
			if got[i] != want {
				t.Fatalf("seed=%d T=%d hold=%v %v: packed=%v scalar=%v", seed, T, hold, flt, got[i], want)
			}
			if brute := bruteForceMode(ts, values, flt); want != brute {
				t.Fatalf("seed=%d T=%d hold=%v %v: scalar=%v brute=%v", seed, T, hold, flt, want, brute)
			}
			for it := range ts.Items {
				if m, s := rows[i][it/64]&(1<<uint(it%64)) != 0, scalar.DetectsOnItem(flt, it); m != s {
					t.Fatalf("seed=%d T=%d hold=%v %v item %d: matrix=%v scalar=%v", seed, T, hold, flt, it, m, s)
				}
			}
		}
	})
}

// TestPackedNASFInputLayer pins the layer-0 downstream path of the packed
// kernel (NASF on input neurons patches the input layer itself).
func TestPackedNASFInputLayer(t *testing.T) {
	values := fault.PaperValues(0.5)
	arch := snn.Arch{4, 3, 2}
	ts := randomTestSet(arch, 2, 3, 55)
	g := NewGolden(ts, nil)
	scalar := g.NewEvaluator(values)
	var universe []fault.Fault
	for i := 0; i < arch[0]; i++ {
		universe = append(universe, fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 0, Index: i}))
	}
	got := g.NewEvaluator(values).DetectsBatch(universe)
	for i, f := range universe {
		if want := scalar.Detects(f); got[i] != want {
			t.Errorf("%v: packed=%v scalar=%v", f, got[i], want)
		}
	}
	if bits.OnesCount64(fullMask(5)) != 5 {
		t.Fatalf("fullMask(5) wrong")
	}
}
