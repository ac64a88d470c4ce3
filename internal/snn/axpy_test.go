package snn

import (
	"math"
	"strconv"
	"testing"
)

// fillPseudo fills dst with a deterministic mix of magnitudes — large,
// tiny, negative and subnormal values — so the bit-exactness assertion
// covers rounding-sensitive operands, not just friendly ones.
func fillPseudo(dst []float64, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range dst {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x % 7 {
		case 0:
			dst[i] = float64(int64(x)) / (1 << 20)
		case 1:
			dst[i] = math.Ldexp(float64(x%1000)+0.5, int(x%40)-20)
		case 2:
			dst[i] = -math.Ldexp(float64(x%997)+0.25, int(x%60)-30)
		case 3:
			dst[i] = math.Ldexp(1, -1060) * float64(x%100) // subnormal range
		case 4:
			dst[i] = 0
		default:
			dst[i] = float64(x%2048)/64 - 16
		}
	}
}

// TestAddIntoBitExact asserts AddInto (whatever kernel the host dispatches
// to) produces bit-identical results to the naive scalar loop for every
// length across the unroll boundaries.
func TestAddIntoBitExact(t *testing.T) {
	for n := 0; n <= 131; n++ {
		dst := make([]float64, n)
		src := make([]float64, n)
		fillPseudo(dst, uint64(n)*2+1)
		fillPseudo(src, uint64(n)*2+2)
		want := make([]float64, n)
		copy(want, dst)
		for i := range want {
			want[i] += src[i]
		}
		AddInto(dst, src)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %x, want %x", n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestAddIntoGenericBitExact pins the portable fallback independently of
// what the host CPU dispatches to.
func TestAddIntoGenericBitExact(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 16, 17, 63, 64, 100} {
		dst := make([]float64, n)
		src := make([]float64, n)
		fillPseudo(dst, uint64(n)+101)
		fillPseudo(src, uint64(n)+202)
		want := make([]float64, n)
		copy(want, dst)
		for i := range want {
			want[i] += src[i]
		}
		addIntoGeneric(dst, src)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// TestAddIntoLengthClamp asserts the min-length contract: extra elements of
// the longer slice are untouched.
func TestAddIntoLengthClamp(t *testing.T) {
	dst := []float64{1, 2, 3, 4}
	AddInto(dst, []float64{10, 20})
	want := []float64{11, 22, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
	src := []float64{1, 1, 1, 1}
	short := []float64{5, 5}
	AddInto(short, src)
	if short[0] != 6 || short[1] != 6 {
		t.Fatalf("short = %v, want [6 6]", short)
	}
}

// TestMulAddIntoBitExact asserts MulAddInto (whatever kernel the host
// dispatches to) matches the naive two-rounding scalar loop bit for bit,
// across unroll boundaries and sign/magnitude extremes of alpha.
func TestMulAddIntoBitExact(t *testing.T) {
	alphas := []float64{1, -1, 0.9, -0.3, 1e-30, -1e30, math.Ldexp(1, -1030), 0}
	for n := 0; n <= 131; n++ {
		alpha := alphas[n%len(alphas)]
		dst := make([]float64, n)
		src := make([]float64, n)
		fillPseudo(dst, uint64(n)*3+1)
		fillPseudo(src, uint64(n)*3+2)
		want := make([]float64, n)
		copy(want, dst)
		for i := range want {
			want[i] += float64(alpha * src[i])
		}
		MulAddInto(dst, src, alpha)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d alpha=%v: dst[%d] = %x, want %x", n, alpha, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestMulAddIntoGenericBitExact pins the portable fallback independently of
// what the host CPU dispatches to.
func TestMulAddIntoGenericBitExact(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 16, 17, 63, 64, 100} {
		alpha := -0.7 + float64(n)/50
		dst := make([]float64, n)
		src := make([]float64, n)
		fillPseudo(dst, uint64(n)+303)
		fillPseudo(src, uint64(n)+404)
		want := make([]float64, n)
		copy(want, dst)
		for i := range want {
			want[i] += float64(alpha * src[i])
		}
		mulAddIntoGeneric(dst, src, alpha)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// TestMulAddIntoLengthClamp asserts the min-length contract: extra elements
// of the longer slice are untouched.
func TestMulAddIntoLengthClamp(t *testing.T) {
	dst := []float64{1, 2, 3, 4}
	MulAddInto(dst, []float64{10, 20}, 2)
	want := []float64{21, 42, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
	short := []float64{5, 5}
	MulAddInto(short, []float64{1, 1, 1, 1}, 3)
	if short[0] != 8 || short[1] != 8 {
		t.Fatalf("short = %v, want [8 8]", short)
	}
}

func BenchmarkAddInto(b *testing.B) {
	for _, n := range []int{32, 256, 1024} {
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			dst := make([]float64, n)
			src := make([]float64, n)
			fillPseudo(dst, 1)
			fillPseudo(src, 2)
			b.SetBytes(int64(n * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddInto(dst, src)
			}
		})
	}
}

// naiveAddSum is the reference for AddSumInto: the materialised weight
// w[i]+e[i] rounds first, then accumulates into dst.
func naiveAddSum(dst, w, e []float64) []float64 {
	want := make([]float64, len(dst))
	copy(want, dst)
	for i := range want {
		t := w[i] + e[i]
		want[i] += t
	}
	return want
}

// TestAddSumIntoBitExact asserts AddSumInto (whatever kernel the host
// dispatches to) matches the clone-then-add reference bit for bit for
// every length across the unroll boundaries.
func TestAddSumIntoBitExact(t *testing.T) {
	for n := 0; n <= 131; n++ {
		dst := make([]float64, n)
		w := make([]float64, n)
		e := make([]float64, n)
		fillPseudo(dst, uint64(n)*5+1)
		fillPseudo(w, uint64(n)*5+2)
		fillPseudo(e, uint64(n)*5+3)
		want := naiveAddSum(dst, w, e)
		AddSumInto(dst, w, e)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %x, want %x", n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestAddSumIntoGenericBitExact pins the portable fallback independently of
// what the host CPU dispatches to.
func TestAddSumIntoGenericBitExact(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 16, 17, 63, 64, 100} {
		dst := make([]float64, n)
		w := make([]float64, n)
		e := make([]float64, n)
		fillPseudo(dst, uint64(n)+505)
		fillPseudo(w, uint64(n)+606)
		fillPseudo(e, uint64(n)+707)
		want := naiveAddSum(dst, w, e)
		addSumIntoGeneric(dst, w, e)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
	}
}

// TestAddSumIntoLengthClamp asserts the min-length contract over all three
// operands: elements beyond the shortest slice are untouched.
func TestAddSumIntoLengthClamp(t *testing.T) {
	dst := []float64{1, 2, 3, 4}
	AddSumInto(dst, []float64{10, 20, 30}, []float64{100, 200})
	want := []float64{111, 222, 3, 4}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
	short := []float64{5}
	AddSumInto(short, []float64{1, 1}, []float64{2, 2})
	if short[0] != 8 {
		t.Fatalf("short = %v, want [8]", short)
	}
}

func BenchmarkAddSumInto(b *testing.B) {
	for _, n := range []int{32, 256, 1024} {
		b.Run("n"+strconv.Itoa(n), func(b *testing.B) {
			dst := make([]float64, n)
			w := make([]float64, n)
			e := make([]float64, n)
			fillPseudo(dst, 1)
			fillPseudo(w, 2)
			fillPseudo(e, 3)
			b.SetBytes(int64(n * 16))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AddSumInto(dst, w, e)
			}
		})
	}
}
