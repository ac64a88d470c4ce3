package snn

// Element-wise float64 accumulation — the inner loop of both the simulator's
// dense integrate sweep and the fault simulator's downstream re-simulation.
// Per-element dst[i] += src[i] keeps one independent accumulator per output
// neuron, so a vectorized implementation performs the exact same IEEE-754
// addition per element as the scalar loop: the result is bit-identical by
// construction, not by tolerance (asserted by TestAddIntoBitExact).

// AddInto adds src into dst element-wise: dst[i] += src[i] for
// i < min(len(dst), len(src)). On amd64 with AVX2 (runtime-detected) the
// accumulation runs 4 doubles per instruction; everywhere else an unrolled
// scalar loop is used. Both paths round identically because each element is
// one IEEE-754 addition either way — no FMA, no reassociation.
func AddInto(dst, src []float64) {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	addInto(dst[:n], src[:n])
}

// MulAddInto accumulates a scaled vector: dst[i] += alpha*src[i] for
// i < min(len(dst), len(src)). Like AddInto, the AVX2 and portable paths
// round identically: every element is one IEEE-754 multiply followed by one
// IEEE-754 addition — never a fused multiply-add — so the result matches
// the scalar loop bit for bit (asserted by TestMulAddIntoBitExact).
func MulAddInto(dst, src []float64, alpha float64) {
	n := len(src)
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return
	}
	mulAddInto(dst[:n], src[:n], alpha)
}

// AddSumInto accumulates an element-wise sum: dst[i] += w[i] + e[i] for
// i < min(len(dst), len(w), len(e)). It is the perturbed-view counterpart of
// AddInto: w is a programmed weight row, e the chip's deviation row, and
// w[i] + e[i] rounds exactly like the materialised weight a clone-then-add
// network would store, before one more IEEE-754 addition into dst. The AVX2
// and portable paths both perform those two additions per element in that
// order — no FMA, no reassociation — so the result matches AddInto over the
// materialised row bit for bit (asserted by TestAddSumIntoBitExact).
func AddSumInto(dst, w, e []float64) {
	n := min(len(dst), len(w), len(e))
	if n == 0 {
		return
	}
	addSumInto(dst[:n], w[:n], e[:n])
}

// addIntoGeneric is the portable accumulation loop, unrolled 4-wide with
// explicit slice caps so the compiler drops the per-element bounds checks.
// len(dst) == len(src) is the callers' contract (AddInto enforces it).
func addIntoGeneric(dst, src []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// addSumIntoGeneric is the portable perturbed accumulation. The inner sum
// w[i] + e[i] is evaluated (and rounded) first, exactly as the weight a
// clone-then-add network stores. len(dst) == len(w) == len(e) is the
// callers' contract (AddSumInto enforces it).
func addSumIntoGeneric(dst, w, e []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		a := w[i : i+4 : i+4]
		b := e[i : i+4 : i+4]
		d[0] += a[0] + b[0]
		d[1] += a[1] + b[1]
		d[2] += a[2] + b[2]
		d[3] += a[3] + b[3]
	}
	for ; i < n; i++ {
		dst[i] += w[i] + e[i]
	}
}

// mulAddIntoGeneric is the portable scaled accumulation. The explicit
// float64 conversions force the product to round before the addition on
// every architecture (the spec lets compilers fuse x*y + z otherwise, which
// would diverge from the two-rounding AVX2 kernel).
func mulAddIntoGeneric(dst, src []float64, alpha float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += float64(alpha * s[0])
		d[1] += float64(alpha * s[1])
		d[2] += float64(alpha * s[2])
		d[3] += float64(alpha * s[3])
	}
	for ; i < n; i++ {
		dst[i] += float64(alpha * src[i])
	}
}
