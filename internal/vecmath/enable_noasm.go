//go:build !amd64

package vecmath

var useAVX2 = false

// The kernels are unreachable without amd64: useAVX2 is constant false above.
func spAVX2(dst, src *float64, n int) bool {
	panic("vecmath: spAVX2 called on non-amd64")
}

func foldAVX2(means, coeffs, x, invs *float64, d, stride, b, nb int, maxLog, sum float64, l *[4]float64) (int, float64, float64) {
	panic("vecmath: foldAVX2 called on non-amd64")
}
