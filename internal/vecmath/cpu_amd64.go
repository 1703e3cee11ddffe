package vecmath

// Implemented in cpu_amd64.s.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// Implemented in cpu_amd64.s.
func xgetbv0() (eax, edx uint32)

// spAVX2 is the 4-wide softplus kernel in vecmath_amd64.s. n must be a
// positive multiple of 4; lanes outside the certified envelope produce
// garbage that Softplus's rescue pass overwrites, and rescue reports
// whether there are any.
//
//go:noescape
func spAVX2(dst, src *float64, n int) (rescue bool)

// foldAVX2 is GaussLogSumExp's block kernel in vecmath_amd64.s: it folds
// the 4-component blocks [b, nb) into the running maximum maxLog and sum,
// and stops at the first block it cannot fold inside the exp envelope,
// returning its index (nb when none) with that block's four log-terms in
// l, and the maximum and sum so far. stride is the byte length of a means
// row.
//
//go:noescape
func foldAVX2(means, coeffs, x, invs *float64, d, stride, b, nb int, maxLog, sum float64, l *[4]float64) (next int, maxOut, sumOut float64)

// cpuSupportsAVX2 reports whether both the CPU and the OS support the
// AVX2+FMA kernel: the AVX2 and FMA instruction sets plus OS-managed YMM
// state (OSXSAVE with the XMM and YMM bits enabled in XCR0).
func cpuSupportsAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&avx2 != 0
}
