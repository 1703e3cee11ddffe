//go:build !amd64

package svm

// The kernel is unreachable without amd64: vecmath.Enabled reports false.
func scoreAVX2(out, xT, w *float64, parent, pow *int32, table *float64, dim, degree, nf int, scale float64) {
	panic("svm: scoreAVX2 called on non-amd64")
}
