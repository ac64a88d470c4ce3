package snn

// amd64 dispatch for AddInto: prefer the AVX2 kernel when the CPU has it and
// the OS saves YMM state, otherwise fall back to the portable loop. The
// detection runs once at package init via raw CPUID/XGETBV (stdlib-only — no
// golang.org/x/sys dependency).

// addIntoAVX2 performs dst[i] += src[i] for i in [0, n) with 256-bit VADDPD.
// Implemented in axpy_amd64.s.
//
//go:noescape
func addIntoAVX2(dst, src *float64, n int)

// mulAddIntoAVX2 performs dst[i] += alpha*src[i] for i in [0, n) with
// 256-bit VMULPD + VADDPD (two roundings per element, never FMA).
// Implemented in axpy_amd64.s.
//
//go:noescape
func mulAddIntoAVX2(dst, src *float64, alpha float64, n int)

// addSumIntoAVX2 performs dst[i] += w[i] + e[i] for i in [0, n) with two
// 256-bit VADDPDs per 4 doubles (w+e first, then into dst; never FMA).
// Implemented in axpy_amd64.s.
//
//go:noescape
func addSumIntoAVX2(dst, w, e *float64, n int)

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the OS-enabled state mask).
func xgetbv0() (eax, edx uint32)

var useAVX2 = detectAVX2()

// detectAVX2 reports whether the AVX2 kernel is safe to run: the CPU must
// advertise AVX and AVX2, the OS must have enabled XSAVE, and XCR0 must show
// XMM and YMM state being saved on context switch.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	lo, _ := xgetbv0()
	if lo&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

func addInto(dst, src []float64) {
	if useAVX2 && len(dst) >= 16 {
		addIntoAVX2(&dst[0], &src[0], len(dst))
		return
	}
	addIntoGeneric(dst, src)
}

func addSumInto(dst, w, e []float64) {
	if useAVX2 && len(dst) >= 16 {
		addSumIntoAVX2(&dst[0], &w[0], &e[0], len(dst))
		return
	}
	addSumIntoGeneric(dst, w, e)
}

func mulAddInto(dst, src []float64, alpha float64) {
	if useAVX2 && len(dst) >= 16 {
		mulAddIntoAVX2(&dst[0], &src[0], alpha, len(dst))
		return
	}
	mulAddIntoGeneric(dst, src, alpha)
}
