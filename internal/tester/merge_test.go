package tester

import (
	"fmt"
	"testing"

	"neurotest/internal/core"
	"neurotest/internal/fault"
	"neurotest/internal/snn"
	"neurotest/internal/unreliable"
	"neurotest/internal/variation"
)

// The merge helpers are the cluster coordinator's correctness foundation:
// a campaign sharded K ways and re-assembled must equal the single-node
// campaign *bit-identically* — integer tallies AND the derived float rates.
// These property-style tests sweep shard counts and partition shapes
// (contiguous and strided, including empty and single shards) and compare
// with == / != on the floats on purpose: "no float drift" is the property.

// partitionContiguous splits [0, n) into k contiguous slices (some possibly
// empty when k > n).
func partitionContiguous(n, k int) [][]int {
	shards := make([][]int, k)
	for i := 0; i < n; i++ {
		s := i * k / n
		if s >= k {
			s = k - 1
		}
		shards[s] = append(shards[s], i)
	}
	return shards
}

// partitionStrided deals [0, n) round-robin across k shards — the shape a
// hash ring produces, where consecutive global indices land on different
// workers.
func partitionStrided(n, k int) [][]int {
	shards := make([][]int, k)
	for i := 0; i < n; i++ {
		shards[i%k] = append(shards[i%k], i)
	}
	return shards
}

func partitions(n, k int) map[string][][]int {
	return map[string][][]int{
		"contiguous": partitionContiguous(n, k),
		"strided":    partitionStrided(n, k),
	}
}

// TestMergeCoveragePartitionsExactly: coverage campaigns over disjoint
// fault shards sum to the whole-universe campaign exactly, integer tallies
// and Coverage() alike — the property the cluster coordinator relies on when
// it adds up the tallies its shards return.
func TestMergeCoveragePartitionsExactly(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	var faults []fault.Fault
	for _, kind := range fault.Kinds() {
		faults = append(faults, fault.Universe(arch, kind)...)
	}
	values := g.Options().Values
	whole := ate.MeasureCoverage(faults, values)

	for k := 1; k <= 5; k++ {
		for shape, shards := range partitions(len(faults), k) {
			t.Run(fmt.Sprintf("%s-k%d", shape, k), func(t *testing.T) {
				var got CoverageResult
				for _, idx := range shards {
					sub := make([]fault.Fault, len(idx))
					for j, i := range idx {
						sub[j] = faults[i]
					}
					part := ate.MeasureCoverage(sub, values)
					got.Total += part.Total
					got.Detected += part.Detected
					got.Undetected = append(got.Undetected, part.Undetected...)
					got.Errors = append(got.Errors, part.Errors...)
				}
				if got.Total != whole.Total || got.Detected != whole.Detected {
					t.Fatalf("summed tally %d/%d, want %d/%d",
						got.Detected, got.Total, whole.Detected, whole.Total)
				}
				if got.Coverage() != whole.Coverage() {
					t.Fatalf("summed Coverage() = %v, want bit-identical %v",
						got.Coverage(), whole.Coverage())
				}
				if len(got.Undetected) != len(whole.Undetected) {
					t.Fatalf("summed %d undetected, want %d",
						len(got.Undetected), len(whole.Undetected))
				}
				if len(got.Errors) != len(whole.Errors) {
					t.Fatalf("summed %d errors, want %d", len(got.Errors), len(whole.Errors))
				}
			})
		}
	}
}

func TestMergeChipTalliesEscapeExactly(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.SWF)
	values := g.Options().Values
	vary := variation.Model{Sigma: 0.2}
	const seed = 99

	whole := ate.EscapeTallyAt(faults, values, identityIndices(len(faults)), vary, seed)
	if whole.Clean != len(faults) {
		t.Fatalf("whole campaign: %d clean of %d", whole.Clean, len(faults))
	}
	pct, errs := ate.EscapeCampaign(faults, values, vary, seed)
	if len(errs) != 0 || pct != whole.Pct() {
		t.Fatalf("EscapeTallyAt.Pct() = %v, EscapeCampaign = %v (errs %v)", whole.Pct(), pct, errs)
	}

	for k := 1; k <= 5; k++ {
		for shape, shards := range partitions(len(faults), k) {
			t.Run(fmt.Sprintf("%s-k%d", shape, k), func(t *testing.T) {
				parts := make([]ChipTally, 0, k)
				for _, idx := range shards {
					parts = append(parts, ate.EscapeTallyAt(faults, values, idx, vary, seed))
				}
				got := MergeChipTallies(parts...)
				if got.Hit != whole.Hit || got.Clean != whole.Clean {
					t.Fatalf("merged tally %d/%d, want %d/%d", got.Hit, got.Clean, whole.Hit, whole.Clean)
				}
				if got.Pct() != whole.Pct() {
					t.Fatalf("merged Pct() = %v, want bit-identical %v", got.Pct(), whole.Pct())
				}
			})
		}
	}
}

func TestMergeChipTalliesOverkillExactly(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	_, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	vary := variation.Model{Sigma: 0.6}
	const nChips, seed = 40, 7

	whole := ate.OverkillTallyAt(identityIndices(nChips), vary, seed)
	if whole.Clean != nChips {
		t.Fatalf("whole campaign: %d clean of %d", whole.Clean, nChips)
	}
	for k := 1; k <= 4; k++ {
		for shape, shards := range partitions(nChips, k) {
			t.Run(fmt.Sprintf("%s-k%d", shape, k), func(t *testing.T) {
				parts := make([]ChipTally, 0, k)
				for _, idx := range shards {
					parts = append(parts, ate.OverkillTallyAt(idx, vary, seed))
				}
				got := MergeChipTallies(parts...)
				if got.Hit != whole.Hit || got.Clean != whole.Clean || got.Pct() != whole.Pct() {
					t.Fatalf("merged = %d/%d (%v%%), want %d/%d (%v%%)",
						got.Hit, got.Clean, got.Pct(), whole.Hit, whole.Clean, whole.Pct())
				}
			})
		}
	}
}

func TestMergeChipTalliesEdges(t *testing.T) {
	if got := MergeChipTallies(); got.Hit != 0 || got.Clean != 0 || got.Pct() != 0 {
		t.Errorf("zero-shard merge = %+v", got)
	}
	one := ChipTally{Hit: 3, Clean: 9}
	if got := MergeChipTallies(one); got.Hit != 3 || got.Clean != 9 || len(got.Errors) != 0 {
		t.Errorf("single-shard merge = %+v", got)
	}
	if got := MergeChipTallies(ChipTally{}, one, ChipTally{}); got.Pct() != one.Pct() {
		t.Errorf("empty shards disturbed the merge: %+v", got)
	}
	if (ChipTally{Hit: 5}).Pct() != 0 {
		t.Errorf("Pct with zero clean chips must be 0")
	}
}

func TestMergeSessionStatsPartitionsExactly(t *testing.T) {
	arch := snn.Arch{6, 5, 4}
	g, merged := smallSuite(t, arch, core.NoVariation())
	ate := New(merged, nil)
	faults := fault.Universe(arch, fault.NASF)
	// Alternate defective and defect-free dies so every outcome bin fills.
	mods := func(i int) *snn.Modifiers {
		if i%3 == 0 {
			return faults[i%len(faults)].Modifiers(g.Options().Values)
		}
		return nil
	}
	prof := unreliable.Profile{
		Intermittence: unreliable.Intermittence{P: 0.6},
		Readout:       unreliable.Readout{DropP: 0.1},
	}
	policy := RetestPolicy{MaxRetests: 3, Vote: true}
	const nChips, seed = 30, 1234

	whole := ate.MeasureSessions(nChips, mods, prof, variation.None(), policy, seed)
	if whole.Chips != nChips {
		t.Fatalf("whole campaign ran %d chips, want %d", whole.Chips, nChips)
	}
	if whole.Fail == 0 || whole.Pass == 0 {
		t.Fatalf("degenerate population (pass=%d fail=%d quarantine=%d): test would prove nothing",
			whole.Pass, whole.Fail, whole.Quarantine)
	}

	for k := 1; k <= 5; k++ {
		for shape, shards := range partitions(nChips, k) {
			t.Run(fmt.Sprintf("%s-k%d", shape, k), func(t *testing.T) {
				parts := make([]SessionStats, 0, k)
				for _, idx := range shards {
					part, err := ate.MeasureSessionsAtContext(
						t.Context(), idx, mods, prof, variation.None(), policy, seed)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, part)
				}
				got := MergeSessionStats(parts...)
				if !sameSessionInts(got, whole) {
					t.Fatalf("merged stats = %+v, want %+v", got, whole)
				}
				// Derived rates are ratios of identical integers: bit-equal.
				if got.PassRate() != whole.PassRate() ||
					got.FailRate() != whole.FailRate() ||
					got.QuarantineRate() != whole.QuarantineRate() ||
					got.Amplification() != whole.Amplification() {
					t.Fatalf("merged rates drifted: %v/%v/%v amp %v, want %v/%v/%v amp %v",
						got.PassRate(), got.FailRate(), got.QuarantineRate(), got.Amplification(),
						whole.PassRate(), whole.FailRate(), whole.QuarantineRate(), whole.Amplification())
				}
			})
		}
	}
}

// sameSessionInts compares every integer field of two SessionStats (the
// Errors slice carries diagnostics, not tallies, and both sides must be
// error-free here anyway).
func sameSessionInts(a, b SessionStats) bool {
	return a.Chips == b.Chips &&
		a.Pass == b.Pass && a.Fail == b.Fail && a.Quarantine == b.Quarantine &&
		a.ItemsRun == b.ItemsRun && a.BaselineItems == b.BaselineItems &&
		a.Retests == b.Retests && a.DroppedReads == b.DroppedReads &&
		a.BudgetSpent == b.BudgetSpent &&
		len(a.Errors) == len(b.Errors)
}

func TestMergeSessionStatsEdges(t *testing.T) {
	if got := MergeSessionStats(); got.Chips != 0 || got.PassRate() != 0 {
		t.Errorf("zero-shard merge = %+v", got)
	}
	one := SessionStats{Chips: 4, Pass: 2, Fail: 1, Quarantine: 1, ItemsRun: 40, BaselineItems: 32, Retests: 8}
	if got := MergeSessionStats(one); !sameSessionInts(got, one) {
		t.Errorf("single-shard merge = %+v, want %+v", got, one)
	}
	if got := MergeSessionStats(SessionStats{}, one, SessionStats{}); !sameSessionInts(got, one) {
		t.Errorf("empty shards disturbed the merge: %+v", got)
	}
}
