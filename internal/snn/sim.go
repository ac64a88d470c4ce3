package snn

import (
	"fmt"
	"math/bits"
	"sort"
)

// MaxTimesteps bounds the observation window so spike trains fit in a
// uint64 bitmask, which the incremental fault simulator relies on.
const MaxTimesteps = 64

// Pattern is one test pattern: a binary primary-input vector (the paper's
// I). True means the primary input delivers a spike to that input neuron.
type Pattern []bool

// NewPattern returns an all-zero pattern of width n.
func NewPattern(n int) Pattern { return make(Pattern, n) }

// OnesPattern returns an all-one pattern of width n.
func OnesPattern(n int) Pattern {
	p := make(Pattern, n)
	for i := range p {
		p[i] = true
	}
	return p
}

// Clone returns an independent copy of the pattern.
func (p Pattern) Clone() Pattern {
	c := make(Pattern, len(p))
	copy(c, p)
	return c
}

// CountOnes returns the number of asserted inputs.
func (p Pattern) CountOnes() int {
	n := 0
	for _, v := range p {
		if v {
			n++
		}
	}
	return n
}

// InputMode selects how a pattern drives the input layer over time.
type InputMode int

const (
	// ApplyOnce presents the pattern in timestep 0 only; later timesteps
	// have silent primary inputs. This is the mode the deterministic test
	// generation assumes.
	ApplyOnce InputMode = iota
	// ApplyHold presents the pattern in every timestep of the window.
	ApplyHold
)

// Modifiers describes behavioural deviations injected into a simulation run.
// The fault package maps each of its five fault models onto these hooks; the
// simulator itself stays fault-model agnostic.
//
// The zero value means "no deviation" (a good chip).
type Modifiers struct {
	// ThresholdOverride replaces the firing threshold of specific neurons
	// (ESF/HSF: θ → θ̂). Input-layer neurons have no threshold and must
	// not appear here.
	ThresholdOverride map[NeuronID]float64
	// ForceSpike makes specific neurons fire every timestep regardless of
	// their MP (NASF). Valid for any layer including the input layer.
	ForceSpike map[NeuronID]bool
	// StuckWeight replaces the effective weight of specific synapses
	// (SWF: w → ω̂) without mutating the network.
	StuckWeight map[SynapseID]float64
	// AlwaysOnSynapse makes specific synapses transmit a spike every
	// timestep (SASF): the synapse contributes its weight each step no
	// matter whether its presynaptic neuron fired.
	AlwaysOnSynapse map[SynapseID]bool
}

// Empty reports whether the modifier set injects nothing.
func (m *Modifiers) Empty() bool {
	return m == nil || (len(m.ThresholdOverride) == 0 && len(m.ForceSpike) == 0 &&
		len(m.StuckWeight) == 0 && len(m.AlwaysOnSynapse) == 0)
}

// MergeModifiers combines several modifier sets into one — a die carrying a
// cluster of physical defects. Later sets win on conflicting entries; nil
// and empty sets are skipped; merging nothing returns nil (a fault-free
// die). The inputs are not mutated.
func MergeModifiers(ms ...*Modifiers) *Modifiers {
	out := &Modifiers{}
	for _, m := range ms {
		if m.Empty() {
			continue
		}
		// Keyed map-to-map copies: keys within one input map are unique,
		// and "later sets win" resolves over the ms slice order, so the
		// randomized map iteration order cannot change the merged result.
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.ThresholdOverride {
			if out.ThresholdOverride == nil {
				out.ThresholdOverride = make(map[NeuronID]float64)
			}
			out.ThresholdOverride[id] = v
		}
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.ForceSpike {
			if out.ForceSpike == nil {
				out.ForceSpike = make(map[NeuronID]bool)
			}
			out.ForceSpike[id] = v
		}
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.StuckWeight {
			if out.StuckWeight == nil {
				out.StuckWeight = make(map[SynapseID]float64)
			}
			out.StuckWeight[id] = v
		}
		//lint:ignore interprocedural-determinism keyed copy; conflicts resolve over slice order, not map order
		for id, v := range m.AlwaysOnSynapse {
			if out.AlwaysOnSynapse == nil {
				out.AlwaysOnSynapse = make(map[SynapseID]bool)
			}
			out.AlwaysOnSynapse[id] = v
		}
	}
	if out.Empty() {
		return nil
	}
	return out
}

// Result is the observable outcome of a simulation: how many spikes each
// output neuron fired inside the observation window. Per Section 3.4 of the
// paper this vector *is* the chip output used for pass/fail comparison.
type Result struct {
	// SpikeCounts has one entry per output neuron.
	SpikeCounts []int
}

// Equal reports whether two results are indistinguishable on the tester.
func (r Result) Equal(o Result) bool {
	if len(r.SpikeCounts) != len(o.SpikeCounts) {
		return false
	}
	for i := range r.SpikeCounts {
		if r.SpikeCounts[i] != o.SpikeCounts[i] {
			return false
		}
	}
	return true
}

// Trace is the full internal activity of one simulation run, recorded by
// Simulator.RunTrace. The incremental fault simulator replays faults against
// a good trace instead of re-simulating the whole network.
type Trace struct {
	Timesteps int
	// X[k][i] is the spike train of neuron i in layer k: bit t is set when
	// the neuron fired in timestep t.
	X [][]uint64
	// Y[k] holds the weighted input sums of layer k (k >= 1), indexed
	// t*width+j: the paper's y^{k+1,j} at timestep t.
	Y [][]float64
}

// SpikeTrain returns the spike train bitmask of a neuron.
func (tr *Trace) SpikeTrain(id NeuronID) uint64 { return tr.X[id.Layer][id.Index] }

// OutputResult derives the observable Result from the trace.
func (tr *Trace) OutputResult() Result {
	out := tr.X[len(tr.X)-1]
	counts := make([]int, len(out))
	for i, train := range out {
		counts[i] = bits.OnesCount64(train)
	}
	return Result{SpikeCounts: counts}
}

// Simulator runs time-stepped LIF simulation of one network. It is
// stateless between runs and safe to reuse; it is not safe for concurrent
// use because it reuses internal buffers.
type Simulator struct {
	net *Network
	// dw is the bound per-weight deviation (same shape as net.W), or nil.
	// The sweep then reads every synapse as the perturbed view
	// net.W[b][i] + dw[b][i] — see Bind.
	dw [][]float64
	// scratch state, allocated once per network shape
	mp     [][]float64
	spikes [][]bool
	y      [][]float64
	// dense per-layer views of the neuron-level modifier maps, rebuilt once
	// per run when the maps are non-empty (see projectMods): the hot sweep
	// then pays one slice read per neuron per timestep instead of two map
	// lookups — the difference shows on every escape/overkill chip run,
	// which simulates the whole network with a one-entry modifier set.
	thOverride [][]float64
	force      [][]bool
	// sorted projections of the synapse-level modifier maps, rebuilt once
	// per run (see projectMods). The sweep accumulates their corrections
	// into y with float64 additions, which are not associative — iterating
	// the maps directly would let two entries targeting the same
	// postsynaptic neuron sum in randomized map order and flip the last
	// bit of y between runs. Sorting by SynapseID fixes the summation
	// order, and slice iteration in the per-timestep loop is cheaper than
	// map iteration anyway.
	stuck    []stuckEntry
	alwaysOn []SynapseID
}

// stuckEntry is one projected StuckWeight modifier.
type stuckEntry struct {
	ID SynapseID
	W  float64
}

// synapseLess orders SynapseIDs by (boundary, pre, post).
func synapseLess(a, b SynapseID) bool {
	if a.Boundary != b.Boundary {
		return a.Boundary < b.Boundary
	}
	if a.Pre != b.Pre {
		return a.Pre < b.Pre
	}
	return a.Post < b.Post
}

// NewSimulator returns a simulator bound to net. The network may be mutated
// between runs (weights only) or swapped for another of the same
// architecture with Bind; architecture changes require a new simulator.
func NewSimulator(net *Network) *Simulator {
	s := &Simulator{net: net}
	L := net.Arch.Layers()
	s.mp = make([][]float64, L)
	s.spikes = make([][]bool, L)
	s.y = make([][]float64, L)
	s.thOverride = make([][]float64, L)
	s.force = make([][]bool, L)
	for k := 0; k < L; k++ {
		s.mp[k] = make([]float64, net.Arch[k])
		s.spikes[k] = make([]bool, net.Arch[k])
		s.y[k] = make([]float64, net.Arch[k])
		s.thOverride[k] = make([]float64, net.Arch[k])
		s.force[k] = make([]bool, net.Arch[k])
	}
	return s
}

// Bind rebinds the simulator to net read through the per-weight deviation
// dw: every synapse then weighs net.W[b][i] + dw[b][i], the chip-under-test
// model of a die whose devices each carry a fixed programming offset. dw
// has the shape of net.W and may be nil (no deviation). Neither net nor dw
// is copied or mutated, so one simulator serves every configuration
// programmed into the same die — no per-configuration network clone.
//
// The perturbed weight is formed only for the rows of presynaptic neurons
// that spike, with the same IEEE-754 addition a clone-then-add network
// performs when it is built, so Run and RunTrace are bit-identical to a
// simulator over the materialised network (asserted by
// TestPerturbedViewMatchesClone). net must have the architecture the
// simulator was created for.
func (s *Simulator) Bind(net *Network, dw [][]float64) {
	if !net.Arch.Equal(s.net.Arch) {
		//lint:ignore no-panic scratch buffers are sized for one architecture; rebinding across shapes is a caller bug
		panic(fmt.Sprintf("snn: Bind to arch %v on a simulator for %v", net.Arch, s.net.Arch))
	}
	if dw != nil && len(dw) != len(net.W) {
		//lint:ignore no-panic a deviation of the wrong shape is a caller bug, not runtime input
		panic(fmt.Sprintf("snn: deviation has %d boundaries, network %d", len(dw), len(net.W)))
	}
	s.net = net
	s.dw = dw
}

// projectMods fills the dense modifier views from the sparse neuron maps,
// projects the sparse synapse maps into sorted slices, and reports which
// dense views the sweep must consult. Filling is O(neurons + synapse
// mods·log) once per run, against O(neurons × timesteps) map lookups
// saved — and the sorted synapse order fixes the float64 summation order
// of stuck/always-on corrections (see the Simulator field comments).
func (s *Simulator) projectMods(mods *Modifiers, theta float64) (denseTh, denseForce bool) {
	s.stuck = s.stuck[:0]
	s.alwaysOn = s.alwaysOn[:0]
	if mods == nil {
		return false, false
	}
	if len(mods.ThresholdOverride) > 0 {
		denseTh = true
		for k := 1; k < len(s.thOverride); k++ {
			th := s.thOverride[k]
			for j := range th {
				th[j] = theta
			}
		}
		//lint:ignore interprocedural-determinism keyed writes into disjoint dense cells; iteration order cannot change the result
		for id, o := range mods.ThresholdOverride {
			s.thOverride[id.Layer][id.Index] = o
		}
	}
	if len(mods.ForceSpike) > 0 {
		denseForce = true
		for k := range s.force {
			f := s.force[k]
			for j := range f {
				f[j] = false
			}
		}
		//lint:ignore interprocedural-determinism keyed writes into disjoint dense cells; iteration order cannot change the result
		for id := range mods.ForceSpike {
			s.force[id.Layer][id.Index] = true
		}
	}
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id, w := range mods.StuckWeight {
		s.stuck = append(s.stuck, stuckEntry{ID: id, W: w})
	}
	sort.Slice(s.stuck, func(i, j int) bool { return synapseLess(s.stuck[i].ID, s.stuck[j].ID) })
	//lint:ignore interprocedural-determinism collects entries for sorting below; order-insensitive by construction
	for id := range mods.AlwaysOnSynapse {
		s.alwaysOn = append(s.alwaysOn, id)
	}
	sort.Slice(s.alwaysOn, func(i, j int) bool { return synapseLess(s.alwaysOn[i], s.alwaysOn[j]) })
	return denseTh, denseForce
}

// Network returns the network the simulator is bound to (without any
// deviation bound alongside it).
func (s *Simulator) Network() *Network { return s.net }

func (s *Simulator) reset() {
	for k := range s.mp {
		for i := range s.mp[k] {
			s.mp[k][i] = 0
			s.spikes[k][i] = false
		}
	}
}

// Run simulates the network for timesteps steps driven by pattern and
// returns the observable output. mods may be nil for a good chip.
func (s *Simulator) Run(pattern Pattern, timesteps int, mode InputMode, mods *Modifiers) Result {
	res, _ := s.run(pattern, timesteps, mode, mods, false)
	return res
}

// RunTrace simulates like Run but additionally records the full activity
// trace (spike trains and weighted input sums of every neuron).
func (s *Simulator) RunTrace(pattern Pattern, timesteps int, mode InputMode, mods *Modifiers) (Result, *Trace) {
	return s.run(pattern, timesteps, mode, mods, true)
}

func (s *Simulator) run(pattern Pattern, timesteps int, mode InputMode, mods *Modifiers, wantTrace bool) (Result, *Trace) {
	arch := s.net.Arch
	if len(pattern) != arch.Inputs() {
		//lint:ignore no-panic mis-sized patterns are generator bugs, not runtime input (documented API contract)
		panic(fmt.Sprintf("snn: pattern width %d does not match input layer %d", len(pattern), arch.Inputs()))
	}
	if timesteps <= 0 || timesteps > MaxTimesteps {
		//lint:ignore no-panic observation windows are fixed by the generators; an invalid one is a harness bug
		panic(fmt.Sprintf("snn: timesteps must be in [1,%d], got %d", MaxTimesteps, timesteps))
	}
	s.reset()
	L := arch.Layers()
	theta := s.net.Params.Theta
	leak := s.net.Params.Leak
	subtract := s.net.Params.Reset == ResetSubtract
	denseTh, denseForce := s.projectMods(mods, theta)

	var trace *Trace
	if wantTrace {
		trace = &Trace{Timesteps: timesteps}
		trace.X = make([][]uint64, L)
		trace.Y = make([][]float64, L)
		for k := 0; k < L; k++ {
			trace.X[k] = make([]uint64, arch[k])
			if k > 0 {
				trace.Y[k] = make([]float64, timesteps*arch[k])
			}
		}
	}

	counts := make([]int, arch.Outputs())

	for t := 0; t < timesteps; t++ {
		// Input layer: relay primary inputs. Input neurons have no MP.
		in := s.spikes[0]
		active := t == 0 || mode == ApplyHold
		for i := range in {
			in[i] = active && pattern[i]
		}
		if denseForce {
			for i, forced := range s.force[0] {
				if forced {
					in[i] = true
				}
			}
		}
		if wantTrace {
			for i, sp := range in {
				if sp {
					trace.X[0][i] |= 1 << uint(t)
				}
			}
		}

		// Hidden and output layers: integrate-and-fire sweep. Within a
		// timestep the wavefront traverses all layers, so one timestep
		// carries a primary-input spike to the primary outputs.
		for k := 1; k < L; k++ {
			nIn, nOut := arch[k-1], arch[k]
			y := s.y[k]
			for j := 0; j < nOut; j++ {
				y[j] = 0
			}
			w := s.net.W[k-1]
			pre := s.spikes[k-1]
			var dw []float64
			if s.dw != nil {
				dw = s.dw[k-1]
			}
			if dw == nil {
				for i := 0; i < nIn; i++ {
					if !pre[i] {
						continue
					}
					AddInto(y, w[i*nOut:(i+1)*nOut])
				}
			} else {
				// Perturbed view: w+dw is formed only for spiking rows.
				for i := 0; i < nIn; i++ {
					if !pre[i] {
						continue
					}
					AddSumInto(y, w[i*nOut:(i+1)*nOut], dw[i*nOut:(i+1)*nOut])
				}
			}
			// Sparse corrections for stuck and always-on synapses, applied
			// in sorted SynapseID order so the float64 sums are
			// bit-reproducible. Both read the synapse's effective weight
			// (perturbed when a deviation is bound), exactly the value the
			// dense sweep above accumulated.
			for _, e := range s.stuck {
				if e.ID.Boundary != k-1 {
					continue
				}
				if pre[e.ID.Pre] {
					y[e.ID.Post] += e.W - weightAt(w, dw, e.ID.Pre*nOut+e.ID.Post)
				}
			}
			for _, id := range s.alwaysOn {
				if id.Boundary != k-1 {
					continue
				}
				// The synapse transmits a spike every timestep: when the
				// presynaptic neuron is silent the weight still arrives.
				if !pre[id.Pre] {
					y[id.Post] += weightAt(w, dw, id.Pre*nOut+id.Post)
				}
			}

			mp := s.mp[k]
			out := s.spikes[k]
			for j := 0; j < nOut; j++ {
				mp[j] = leak*mp[j] + y[j]
				th := theta
				if denseTh {
					th = s.thOverride[k][j]
				}
				fired := mp[j] > th
				if denseForce && s.force[k][j] {
					fired = true
				}
				out[j] = fired
				if fired {
					if subtract {
						mp[j] -= th
					} else {
						mp[j] = 0
					}
				}
			}
			if wantTrace {
				copy(trace.Y[k][t*nOut:(t+1)*nOut], y)
				for j, sp := range out {
					if sp {
						trace.X[k][j] |= 1 << uint(t)
					}
				}
			}
		}

		for j, sp := range s.spikes[L-1] {
			if sp {
				counts[j]++
			}
		}
	}

	return Result{SpikeCounts: counts}, trace
}

// weightAt returns the effective weight w[i], read through the deviation
// row dw when one is bound (nil dw: the programmed weight itself).
func weightAt(w, dw []float64, i int) float64 {
	if dw == nil {
		return w[i]
	}
	return w[i] + dw[i]
}
