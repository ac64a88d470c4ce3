package faultsim

import (
	"context"
	"errors"
	"testing"

	"neurotest/internal/fault"
	"neurotest/internal/pattern"
	"neurotest/internal/snn"
)

// contextEngine builds a tiny evaluator with a hand-made two-item set and
// a fault both items detect.
func contextEngine(t *testing.T) (*Evaluator, fault.Fault) {
	t.Helper()
	arch := snn.Arch{3, 2}
	params := snn.DefaultParams()
	ts := pattern.NewTestSet("ctx", arch, params)
	cfg := snn.New(arch, params)
	for i := range cfg.W[0] {
		cfg.W[0][i] = params.Theta * 1.5
	}
	ci := ts.AddConfig(cfg)
	p := snn.NewPattern(3)
	p[0] = true
	ts.AddItem(pattern.Item{Label: "a", ConfigIndex: ci, Pattern: p, Timesteps: 4})
	ts.AddItem(pattern.Item{Label: "b", ConfigIndex: ci, Pattern: p.Clone(), Timesteps: 4})
	values := fault.PaperValues(params.Theta)
	f := fault.NewNeuronFault(fault.NASF, snn.NeuronID{Layer: 1, Index: 0})
	return New(ts, values, nil), f
}

// countdownCtx is a context whose Err turns context.Canceled after a fixed
// number of calls, so a test can cancel a scan between two given items.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestDetectsContextMatchesPlain: under a background context the
// cancellable batch entry point returns exactly DetectsBatch's verdicts.
func TestDetectsContextMatchesPlain(t *testing.T) {
	e, f := contextEngine(t)
	faults := append([]fault.Fault{f}, fault.Universe(e.TestSet().Arch, fault.SWF)...)
	got, err := e.DetectsBatchContext(context.Background(), faults)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	want := e.DetectsBatch(faults)
	for i := range faults {
		if got[i] != want[i] || want[i] != e.Detects(faults[i]) {
			t.Fatalf("%v: DetectsBatchContext = %v, DetectsBatch = %v, Detects = %v",
				faults[i], got[i], want[i], e.Detects(faults[i]))
		}
	}
}

// TestDetectsContextPreCancelled: a cancelled context stops the scan before
// the first item, reports the cancellation and claims no detection.
func TestDetectsContextPreCancelled(t *testing.T) {
	e, f := contextEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := Snapshot()
	got, err := e.DetectsBatchContext(ctx, []fault.Fault{f})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(got) != 1 || got[0] {
		t.Fatalf("cancelled scan reported %v, want [false]", got)
	}
	if d := statsDelta(Snapshot(), before); d.FaultsSimulated != 0 {
		t.Errorf("cancelled scan counted %d faults simulated, want 0", d.FaultsSimulated)
	}
}

// TestDetectsBatchContextMidScanCancel cancels mid-batch: the fault already
// decided keeps its verdict, the fault whose scan was cut short reads false
// and the error names the cancellation.
func TestDetectsBatchContextMidScanCancel(t *testing.T) {
	e, _ := contextEngine(t)
	// The output neurons fire every timestep, so a raised threshold is
	// caught by item 0 while a lowered one is inert on both items.
	hard := fault.NewNeuronFault(fault.HSF, snn.NeuronID{Layer: 1, Index: 0})
	inert := fault.NewNeuronFault(fault.ESF, snn.NeuronID{Layer: 1, Index: 1})
	if e.DetectingItem(hard) != 0 || e.Detects(inert) {
		t.Fatalf("fixture broken: %v first detected by item %d, %v detected %v",
			hard, e.DetectingItem(hard), inert, e.Detects(inert))
	}
	// One Err call succeeds: the HSF group scans item 0 and resolves, the
	// ESF group is cancelled before its first item.
	got, err := e.DetectsBatchContext(&countdownCtx{Context: context.Background(), left: 1}, []fault.Fault{hard, inert})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("partial verdicts %v, want [true false]", got)
	}
}
