package snn

import (
	"math"
	"testing"
)

// TestAddSumIntoAVX2MatchesGeneric runs the AVX2 kernel directly against
// the portable loop, so a host that dispatches to AVX2 still pins the two
// against each other (and a host without it skips rather than passing
// vacuously through the generic path twice).
func TestAddSumIntoAVX2MatchesGeneric(t *testing.T) {
	if !useAVX2 {
		t.Skip("host has no AVX2")
	}
	for n := 1; n <= 131; n++ {
		w := make([]float64, n)
		e := make([]float64, n)
		a := make([]float64, n)
		fillPseudo(w, uint64(n)*11+1)
		fillPseudo(e, uint64(n)*11+2)
		fillPseudo(a, uint64(n)*11+3)
		b := append([]float64(nil), a...)
		addSumIntoAVX2(&a[0], &w[0], &e[0], n)
		addSumIntoGeneric(b, w, e)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("n=%d: AVX2 [%d] = %x, generic %x", n, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
}
