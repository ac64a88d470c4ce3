package variation

import (
	"math"
	"testing"
	"testing/quick"

	"neurotest/internal/snn"
	"neurotest/internal/stats"
)

func TestModelBasics(t *testing.T) {
	if !None().Zero() {
		t.Errorf("None not zero")
	}
	m := OfTheta(0.10, 0.5)
	if m.Sigma != 0.05 {
		t.Errorf("OfTheta sigma = %g", m.Sigma)
	}
	if m.Zero() {
		t.Errorf("10%%θ model is zero")
	}
	if None().String() != "no variation" {
		t.Errorf("None string %q", None().String())
	}
	if m.String() != "σ=0.05" {
		t.Errorf("model string %q", m.String())
	}
}

// TestPerturbMoments checks the sampled deviation is unbiased with the
// model's σ: every weight of a perturbed configuration is W+E.
func TestPerturbMoments(t *testing.T) {
	m := Model{Sigma: 0.2}
	e := m.SampleError(snn.Arch{100, 100}, stats.NewRNG(9))
	net := snn.New(snn.Arch{100, 100}, snn.DefaultParams())
	net.Fill(1)
	xs := make([]float64, 0, 10000)
	for _, w := range e.ApplyTo(net).W[0] {
		xs = append(xs, w)
	}
	if mean := stats.Mean(xs); math.Abs(mean-1) > 0.01 {
		t.Errorf("perturbed mean = %g, want ≈ 1 (unbiased)", mean)
	}
	if sd := stats.StdDev(xs); math.Abs(sd-0.2) > 0.01 {
		t.Errorf("perturbed stddev = %g, want ≈ 0.2", sd)
	}
}

func TestPerturbNoClampBias(t *testing.T) {
	// The regression that produced phantom overkill: weights saturated at
	// ±ωmax must stay zero-mean after perturbation (no clamping).
	net := snn.New(snn.Arch{100, 100}, snn.DefaultParams())
	net.Fill(-10) // ωmin
	m := Model{Sigma: 0.5}
	e := m.SampleError(net.Arch, stats.NewRNG(10))
	xs := make([]float64, 0, 10000)
	below := 0
	for _, w := range e.ApplyTo(net).W[0] {
		xs = append(xs, w)
		if w < -10 {
			below++
		}
	}
	if mean := stats.Mean(xs); math.Abs(mean+10) > 0.02 {
		t.Errorf("saturated weights biased: mean = %g, want ≈ -10", mean)
	}
	if below == 0 {
		t.Errorf("no weights below ωmin: clamping crept back in")
	}
}

func TestPerturbZeroIsNoop(t *testing.T) {
	// A zero model draws nothing (a nil RNG must be fine) and leaves a
	// reused buffer untouched.
	buf := &ErrorTensor{E: [][]float64{{2, 2}}}
	if e := None().SampleErrorInto(buf, snn.Arch{3, 2}, nil); e != nil {
		t.Fatalf("zero model produced a tensor")
	}
	if buf.E[0][0] != 2 || buf.E[0][1] != 2 {
		t.Errorf("zero model wrote into the buffer: %v", buf.E)
	}
}

// TestApplyToLeavesOriginal pins the reference materialisation: ApplyTo
// clones, so the programmed configuration stays untouched.
func TestApplyToLeavesOriginal(t *testing.T) {
	net := snn.New(snn.Arch{3, 2}, snn.DefaultParams())
	net.Fill(1)
	c := Model{Sigma: 0.1}.SampleError(net.Arch, stats.NewRNG(3)).ApplyTo(net)
	for _, w := range net.W[0] {
		if w != 1 {
			t.Fatalf("original mutated: %g", w)
		}
	}
	changed := false
	for i, w := range c.W[0] {
		if w != net.W[0][i] {
			changed = true
		}
	}
	if !changed {
		t.Errorf("clone not perturbed")
	}
}

// TestSampleErrorIntoMatchesSampleError asserts the buffered sampler
// consumes the RNG stream exactly like SampleError, reuses the buffer's
// rows, and reshapes a buffer from another architecture.
func TestSampleErrorIntoMatchesSampleError(t *testing.T) {
	m := Model{Sigma: 0.3}
	arch := snn.Arch{5, 4, 3}
	buf := m.SampleErrorInto(nil, snn.Arch{2, 9, 1, 6}, stats.NewRNG(1))
	for seed := uint64(1); seed <= 3; seed++ {
		want := m.SampleError(arch, stats.NewRNG(seed))
		r1 := stats.NewRNG(seed)
		got := m.SampleErrorInto(buf, arch, r1)
		if got != buf {
			t.Fatalf("SampleErrorInto did not return its buffer")
		}
		if len(got.E) != len(want.E) {
			t.Fatalf("%d boundaries, want %d", len(got.E), len(want.E))
		}
		for b := range want.E {
			if len(got.E[b]) != len(want.E[b]) {
				t.Fatalf("boundary %d: %d weights, want %d", b, len(got.E[b]), len(want.E[b]))
			}
			for i := range want.E[b] {
				if math.Float64bits(got.E[b][i]) != math.Float64bits(want.E[b][i]) {
					t.Fatalf("seed %d E[%d][%d] = %v, want %v", seed, b, i, got.E[b][i], want.E[b][i])
				}
			}
		}
		// The stream position after sampling matches too.
		r2 := stats.NewRNG(seed)
		m.SampleError(arch, r2)
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("seed %d: RNG stream diverged after sampling", seed)
		}
	}
	row := &buf.E[0][0]
	m.SampleErrorInto(buf, arch, stats.NewRNG(9))
	if &buf.E[0][0] != row {
		t.Errorf("same-shape resample reallocated its row")
	}
}

func TestErrorTensor(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	m := Model{Sigma: 0.1}
	e := m.SampleError(arch, stats.NewRNG(4))
	if e == nil {
		t.Fatalf("nil tensor for non-zero model")
	}
	if len(e.E) != arch.Boundaries() {
		t.Fatalf("tensor has %d boundaries", len(e.E))
	}
	net := snn.New(arch, snn.DefaultParams())
	net.Fill(5)
	out := e.ApplyTo(net)
	if out == net {
		t.Fatalf("ApplyTo returned original for non-nil tensor")
	}
	for b := range out.W {
		for i, w := range out.W[b] {
			want := 5 + e.E[b][i]
			if math.Abs(w-want) > 1e-12 {
				t.Errorf("weight = %g, want %g", w, want)
			}
		}
	}
	// Same tensor applied to two configurations shifts both identically.
	net2 := snn.New(arch, snn.DefaultParams())
	net2.Fill(-1)
	out2 := e.ApplyTo(net2)
	for b := range out.W {
		for i := range out.W[b] {
			d1 := out.W[b][i] - 5
			d2 := out2.W[b][i] + 1
			if math.Abs(d1-d2) > 1e-12 {
				t.Errorf("tensor not frozen across configs: %g vs %g", d1, d2)
			}
		}
	}
}

func TestErrorTensorNil(t *testing.T) {
	if None().SampleError(snn.Arch{2, 2}, nil) != nil {
		t.Errorf("zero model produced a tensor")
	}
	var e *ErrorTensor
	net := snn.New(snn.Arch{2, 2}, snn.DefaultParams())
	if e.ApplyTo(net) != net {
		t.Errorf("nil tensor did not pass through")
	}
}

func TestNuAndNegligible(t *testing.T) {
	m := OfTheta(0.10, 0.5) // σ = 0.05, ωmax = 10, c = 3 → ν = 1111
	if got := m.Nu(10, 3); got != 1111 {
		t.Errorf("Nu = %d, want 1111", got)
	}
	// 1111 > 576: the paper's models see 10 % θ as negligible.
	if !m.Negligible(snn.Arch{576, 256, 32, 10}, 10, 3) {
		t.Errorf("10%%θ not negligible for the 4-layer model")
	}
	// A much wider layer flips it.
	if m.Negligible(snn.Arch{2000, 10}, 10, 3) {
		t.Errorf("ν=1111 reported negligible for width 2000")
	}
	if !None().Negligible(snn.Arch{2000, 10}, 10, 3) {
		t.Errorf("zero variation not negligible")
	}
}

func TestPerturbDeterministicQuick(t *testing.T) {
	f := func(seed uint64) bool {
		arch := snn.Arch{3, 3}
		m := Model{Sigma: 0.3}
		a := m.SampleError(arch, stats.NewRNG(seed))
		b := m.SampleError(arch, stats.NewRNG(seed))
		for k := range a.E {
			for i := range a.E[k] {
				if a.E[k][i] != b.E[k][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
