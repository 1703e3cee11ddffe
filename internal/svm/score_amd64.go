package svm

// scoreAVX2 is the 16-draw scoring kernel in score_amd64.s.
//
//go:noescape
func scoreAVX2(out, xT, w *float64, parent, pow *int32, table *float64, dim, degree, nf int, scale float64)
