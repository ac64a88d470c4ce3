package fault

import (
	"errors"
	"strings"
	"testing"

	"neurotest/internal/snn"
)

func TestKindClassification(t *testing.T) {
	for _, k := range NeuronKinds() {
		if !k.IsNeuronFault() || k.IsSynapseFault() {
			t.Errorf("%v misclassified", k)
		}
	}
	for _, k := range SynapseKinds() {
		if !k.IsSynapseFault() || k.IsNeuronFault() {
			t.Errorf("%v misclassified", k)
		}
	}
	if len(Kinds()) != 5 {
		t.Errorf("Kinds() = %v", Kinds())
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{NASF: "NASF", ESF: "ESF", HSF: "HSF", SWF: "SWF", SASF: "SASF"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string: %q", Kind(99).String())
	}
}

func TestPaperValues(t *testing.T) {
	v := PaperValues(0.5)
	if v.ESFTheta != 0.05 || v.HSFTheta != 0.95 || v.SWFOmega != 1.0 {
		t.Errorf("PaperValues(0.5) = %+v", v)
	}
	if err := v.Validate(0.5); err != nil {
		t.Errorf("paper values invalid: %v", err)
	}
	if err := (Values{ESFTheta: 0.6, HSFTheta: 0.9}).Validate(0.5); err == nil {
		t.Errorf("ESF θ̂ above θ accepted")
	}
	if err := (Values{ESFTheta: 0.1, HSFTheta: 0.4}).Validate(0.5); err == nil {
		t.Errorf("HSF θ̂ below θ accepted")
	}
}

func TestUniverseSizes(t *testing.T) {
	arch := snn.Arch{576, 256, 32, 10}
	for _, k := range NeuronKinds() {
		if got := len(Universe(arch, k)); got != 298 {
			t.Errorf("%v universe = %d, paper says 298", k, got)
		}
		if got := UniverseSize(arch, k); got != 298 {
			t.Errorf("%v UniverseSize = %d", k, got)
		}
	}
	for _, k := range SynapseKinds() {
		if got := len(Universe(arch, k)); got != 155968 {
			t.Errorf("%v universe = %d, paper says 155968", k, got)
		}
		if got := UniverseSize(arch, k); got != 155968 {
			t.Errorf("%v UniverseSize = %d", k, got)
		}
	}
}

// TestUniverseAllocatesOnce asserts Universe sizes its slice exactly up
// front: one allocation, no growth copies, whatever the universe size.
func TestUniverseAllocatesOnce(t *testing.T) {
	arch := snn.Arch{24, 16, 8}
	for _, k := range Kinds() {
		u := Universe(arch, k)
		if len(u) != UniverseSize(arch, k) || cap(u) != len(u) {
			t.Errorf("%v universe len %d cap %d, want %d", k, len(u), cap(u), UniverseSize(arch, k))
		}
		if allocs := testing.AllocsPerRun(5, func() { Universe(arch, k) }); allocs != 1 {
			t.Errorf("%v universe: %v allocations, want 1", k, allocs)
		}
	}
}

func TestUniverseExcludesInputNeurons(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	for _, f := range Universe(arch, NASF) {
		if f.Neuron.Layer == 0 {
			t.Fatalf("input neuron %v in NASF universe", f.Neuron)
		}
	}
	if got := len(Universe(arch, NASF)); got != 5 {
		t.Errorf("universe size = %d, want 5", got)
	}
}

func TestUniverseDeterministicOrder(t *testing.T) {
	arch := snn.Arch{3, 2, 2}
	a := Universe(arch, SWF)
	b := Universe(arch, SWF)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("universe order not deterministic at %d", i)
		}
	}
	// First fault is boundary 0, pre 0, post 0.
	if a[0].Synapse != (snn.SynapseID{}) {
		t.Errorf("first synapse fault = %v", a[0].Synapse)
	}
}

// TestValidate: every universe member is valid, and each kind rejects a
// bad layer, index, boundary, pre or post value with a *SiteError naming
// the fault.
func TestValidate(t *testing.T) {
	arch := snn.Arch{4, 3, 2}
	for _, k := range Kinds() {
		for _, f := range Universe(arch, k) {
			if err := f.Validate(arch); err != nil {
				t.Fatalf("universe member rejected: %v", err)
			}
		}
	}
	n := func(k Kind, layer, index int) Fault {
		return Fault{Kind: k, Neuron: snn.NeuronID{Layer: layer, Index: index}}
	}
	s := func(k Kind, b, pre, post int) Fault {
		return Fault{Kind: k, Synapse: snn.SynapseID{Boundary: b, Pre: pre, Post: post}}
	}
	var bad []Fault
	for _, k := range NeuronKinds() {
		bad = append(bad,
			n(k, 0, 0),  // input layer: no neuron faults there
			n(k, -1, 0), // layer below range
			n(k, 3, 0),  // layer past the output layer
			n(k, 1, -1), // index below range
			n(k, 1, 3),  // index past layer 1's width
			n(k, 2, 2),  // index past the output layer's width
		)
	}
	for _, k := range SynapseKinds() {
		bad = append(bad,
			s(k, -1, 0, 0), // boundary below range
			s(k, 2, 0, 0),  // boundary past the last one
			s(k, 0, -1, 0), // pre below range
			s(k, 0, 4, 0),  // pre past the input layer's width
			s(k, 1, 3, 0),  // pre past layer 1's width
			s(k, 0, 0, -1), // post below range
			s(k, 0, 0, 3),  // post past layer 1's width
			s(k, 1, 0, 2),  // post past the output layer's width
		)
	}
	bad = append(bad, Fault{Kind: numKinds}, Fault{Kind: -1})
	for _, f := range bad {
		err := f.Validate(arch)
		var se *SiteError
		if !errors.As(err, &se) || se.Fault != f {
			t.Errorf("%v: Validate = %v, want a *SiteError naming it", f, err)
			continue
		}
		if !strings.Contains(err.Error(), f.String()) {
			t.Errorf("%v: error %q does not name the fault", f, err)
		}
	}
}

func TestConstructors(t *testing.T) {
	nf := NewNeuronFault(ESF, snn.NeuronID{Layer: 1, Index: 2})
	if nf.Kind != ESF || nf.Neuron.Index != 2 {
		t.Errorf("NewNeuronFault = %+v", nf)
	}
	sf := NewSynapseFault(SASF, snn.SynapseID{Boundary: 1, Pre: 2, Post: 3})
	if sf.Kind != SASF || sf.Synapse.Post != 3 {
		t.Errorf("NewSynapseFault = %+v", sf)
	}
	assertPanics(t, "neuron fault with synapse kind", func() {
		NewNeuronFault(SWF, snn.NeuronID{})
	})
	assertPanics(t, "synapse fault with neuron kind", func() {
		NewSynapseFault(NASF, snn.SynapseID{})
	})
}

func TestFaultString(t *testing.T) {
	nf := NewNeuronFault(HSF, snn.NeuronID{Layer: 1, Index: 0})
	if nf.String() != "HSF@n[2,1]" {
		t.Errorf("String = %q", nf.String())
	}
	sf := NewSynapseFault(SWF, snn.SynapseID{Boundary: 0, Pre: 1, Post: 2})
	if sf.String() != "SWF@w[1,2,3]" {
		t.Errorf("String = %q", sf.String())
	}
}

func TestModifiersMapping(t *testing.T) {
	v := PaperValues(0.5)
	n := snn.NeuronID{Layer: 1, Index: 3}
	s := snn.SynapseID{Boundary: 0, Pre: 1, Post: 2}

	m := NewNeuronFault(NASF, n).Modifiers(v)
	if !m.ForceSpike[n] {
		t.Errorf("NASF modifiers: %+v", m)
	}
	m = NewNeuronFault(ESF, n).Modifiers(v)
	if m.ThresholdOverride[n] != v.ESFTheta {
		t.Errorf("ESF modifiers: %+v", m)
	}
	m = NewNeuronFault(HSF, n).Modifiers(v)
	if m.ThresholdOverride[n] != v.HSFTheta {
		t.Errorf("HSF modifiers: %+v", m)
	}
	m = NewSynapseFault(SWF, s).Modifiers(v)
	if m.StuckWeight[s] != v.SWFOmega {
		t.Errorf("SWF modifiers: %+v", m)
	}
	m = NewSynapseFault(SASF, s).Modifiers(v)
	if !m.AlwaysOnSynapse[s] {
		t.Errorf("SASF modifiers: %+v", m)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
