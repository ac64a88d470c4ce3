package snn

import (
	"fmt"
	"math"
	"testing"

	"neurotest/internal/stats"
)

// randomPerturbedCase draws a small random network (2–4 layers, widths up to
// 40 so both the AVX2 blocks and the scalar tails of AddSumInto run), a
// deviation tensor of the network's shape, and a pattern.
func randomPerturbedCase(rng *stats.RNG, reset ResetMode) (*Network, [][]float64, Pattern) {
	arch := make(Arch, 2+rng.Intn(3))
	for k := range arch {
		arch[k] = 1 + rng.Intn(40)
	}
	params := Params{Theta: 0.5, Leak: 0.5 + rng.Float64()/2, WMax: 10, Reset: reset}
	net := New(arch, params)
	dw := make([][]float64, arch.Boundaries())
	sigma := params.Theta * (0.05 + rng.Float64()/4)
	for b := range net.W {
		dw[b] = make([]float64, len(net.W[b]))
		for i := range net.W[b] {
			// Mostly small weights so spiking stays sparse and partial,
			// with a few super-threshold ones to carry activity deeper.
			net.W[b][i] = params.Theta * (rng.Float64()*1.2 - 0.35)
			dw[b][i] = sigma * rng.NormFloat64()
		}
	}
	p := NewPattern(arch.Inputs())
	for i := range p {
		p[i] = rng.Intn(2) == 0
	}
	return net, dw, p
}

// randomMods draws one modifier set of the given kind against arch: 0 none,
// 1 threshold override, 2 force spike, 3 stuck weight, 4 always-on synapse,
// 5 a merged multi-fault die carrying all four.
func randomMods(rng *stats.RNG, arch Arch, kind int) *Modifiers {
	neuron := func(minLayer int) NeuronID {
		k := minLayer + rng.Intn(arch.Layers()-minLayer)
		return NeuronID{Layer: k, Index: rng.Intn(arch[k])}
	}
	synapse := func() SynapseID {
		b := rng.Intn(arch.Boundaries())
		return SynapseID{Boundary: b, Pre: rng.Intn(arch[b]), Post: rng.Intn(arch[b+1])}
	}
	switch kind {
	case 1:
		m := &Modifiers{ThresholdOverride: map[NeuronID]float64{}}
		for n := 0; n < 3; n++ {
			m.ThresholdOverride[neuron(1)] = rng.Float64() * 1.5
		}
		return m
	case 2:
		return &Modifiers{ForceSpike: map[NeuronID]bool{neuron(0): true, neuron(0): true}}
	case 3:
		m := &Modifiers{StuckWeight: map[SynapseID]float64{}}
		for n := 0; n < 4; n++ {
			m.StuckWeight[synapse()] = (rng.Float64()*2 - 1) * 1.3
		}
		return m
	case 4:
		m := &Modifiers{AlwaysOnSynapse: map[SynapseID]bool{}}
		for n := 0; n < 4; n++ {
			m.AlwaysOnSynapse[synapse()] = true
		}
		return m
	case 5:
		return MergeModifiers(randomMods(rng, arch, 1), randomMods(rng, arch, 2),
			randomMods(rng, arch, 3), randomMods(rng, arch, 4))
	}
	return nil
}

// materialise is the clone-then-add reference: the network a die with
// deviation dw stores, built the way variation.ErrorTensor.ApplyTo does.
func materialise(net *Network, dw [][]float64) *Network {
	c := net.Clone()
	for b := range c.W {
		for i := range c.W[b] {
			c.W[b][i] += dw[b][i]
		}
	}
	return c
}

// equalTraces reports the first bit-level difference between two traces.
func equalTraces(a, b *Trace) error {
	for k := range a.X {
		for i := range a.X[k] {
			if a.X[k][i] != b.X[k][i] {
				return fmt.Errorf("X[%d][%d] = %b, want %b", k, i, a.X[k][i], b.X[k][i])
			}
		}
		for i := range a.Y[k] {
			if math.Float64bits(a.Y[k][i]) != math.Float64bits(b.Y[k][i]) {
				return fmt.Errorf("Y[%d][%d] = %x, want %x", k, i, math.Float64bits(a.Y[k][i]), math.Float64bits(b.Y[k][i]))
			}
		}
	}
	return nil
}

// TestPerturbedViewMatchesClone is the differential proof of the perturbed
// view: on random networks and deviation tensors, a simulator bound to
// (net, dw) produces the same Result and the same full Trace — every spike
// train and every weighted input sum, bit for bit — as a fresh simulator
// over the materialised clone-then-add network. It covers every modifier
// kind, both reset modes and both input modes, and reuses one view
// simulator across rebinds, the way campaigns program configurations.
func TestPerturbedViewMatchesClone(t *testing.T) {
	rng := stats.NewRNG(20240613)
	for _, reset := range []ResetMode{ResetZero, ResetSubtract} {
		var view *Simulator
		for c := 0; c < 60; c++ {
			net, dw, p := randomPerturbedCase(rng, reset)
			ref := NewSimulator(materialise(net, dw))
			if view == nil || !view.Network().Arch.Equal(net.Arch) {
				view = NewSimulator(net)
			}
			view.Bind(net, dw)
			for kind := 0; kind <= 5; kind++ {
				mods := randomMods(rng, net.Arch, kind)
				for _, mode := range []InputMode{ApplyOnce, ApplyHold} {
					steps := 1 + rng.Intn(12)
					name := fmt.Sprintf("%v case %d arch %v kind %d mode %d", reset, c, net.Arch, kind, mode)
					wantRes, wantTr := ref.RunTrace(p, steps, mode, mods)
					gotRes, gotTr := view.RunTrace(p, steps, mode, mods)
					if !gotRes.Equal(wantRes) {
						t.Fatalf("%s: RunTrace result %v, want %v", name, gotRes.SpikeCounts, wantRes.SpikeCounts)
					}
					if err := equalTraces(gotTr, wantTr); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := view.Run(p, steps, mode, mods); !got.Equal(wantRes) {
						t.Fatalf("%s: Run result %v, want %v", name, got.SpikeCounts, wantRes.SpikeCounts)
					}
				}
			}
		}
	}
}

// TestBindNilDeviationIsUnperturbed asserts Bind(net, nil) is the plain
// simulator over net, and that rebinding leaves neither net nor dw mutated.
func TestBindNilDeviationIsUnperturbed(t *testing.T) {
	rng := stats.NewRNG(7)
	net, dw, p := randomPerturbedCase(rng, ResetZero)
	before := materialise(net, dw) // independent copy of W+dw
	sim := NewSimulator(net)
	sim.Bind(net, dw)
	sim.RunTrace(p, 8, ApplyHold, nil)
	sim.Bind(net, nil)
	_, got := sim.RunTrace(p, 8, ApplyHold, nil)
	_, want := NewSimulator(net).RunTrace(p, 8, ApplyHold, nil)
	if err := equalTraces(got, want); err != nil {
		t.Fatalf("nil deviation: %v", err)
	}
	after := materialise(net, dw)
	for b := range before.W {
		for i := range before.W[b] {
			if math.Float64bits(before.W[b][i]) != math.Float64bits(after.W[b][i]) {
				t.Fatalf("Bind/Run mutated the network or the deviation at [%d][%d]", b, i)
			}
		}
	}
}

// TestBindPanicsOnShapeMismatch pins the rebinding contract: scratch is
// sized for one architecture, and a deviation must match the network.
func TestBindPanicsOnShapeMismatch(t *testing.T) {
	sim := NewSimulator(New(Arch{3, 2}, DefaultParams()))
	for name, fn := range map[string]func(){
		"arch":      func() { sim.Bind(New(Arch{3, 3}, DefaultParams()), nil) },
		"deviation": func() { sim.Bind(New(Arch{3, 2}, DefaultParams()), [][]float64{{0}, {0}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}
