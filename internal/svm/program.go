package svm

import (
	"fmt"

	"ecripse/internal/linalg"
)

// program is the compiled evaluation plan of a monomial basis. The naive
// transform walks every exponent tuple and multiplies one power-table
// factor per nonzero dimension — ~Dim branchy operations per feature. The
// program exploits the enumeration's structure instead: every monomial
// extends an earlier ("parent") monomial — the same tuple with its last
// nonzero dimension zeroed — by exactly one power-table factor, so the
// whole feature vector is one sequential pass of a single multiply each.
//
// The incremental product reproduces the tuple walk bit-for-bit: the walk
// computes each feature as a left-fold v = ((t_{d1}·t_{d2})·…)·t_{dk} over
// its nonzero dimensions in increasing-dimension order, and the parent's
// value is exactly the fold over the first k−1 factors. The basis
// enumeration emits parents before children (lexicographic order, smaller
// last exponent first), so one forward pass suffices.
//
// A program is weight-independent — pure basis structure — so it is built
// once in NewPolyFeatures and shared by every classifier and scorer over
// the basis, no matter how the weights evolve.
type program struct {
	parent []int32 // feature index this monomial extends (entry 0 unused)
	pow    []int32 // flat power-table index (dim*stride + exponent) of the extension factor
}

// compile builds the program for the enumerated basis.
func (pf *PolyFeatures) compile() program {
	stride := pf.Degree + 1
	index := make(map[string]int32, len(pf.exps))
	keyBuf := make([]byte, pf.Dim)
	key := func(tup []int) string {
		for d, e := range tup {
			keyBuf[d] = byte(e)
		}
		return string(keyBuf)
	}
	for i, tup := range pf.exps {
		index[key(tup)] = int32(i)
	}
	p := program{
		parent: make([]int32, len(pf.exps)),
		pow:    make([]int32, len(pf.exps)),
	}
	parentTup := make([]int, pf.Dim)
	for i, tup := range pf.exps {
		last := -1
		for d, e := range tup {
			if e > 0 {
				last = d
			}
		}
		if last < 0 {
			continue // the constant feature; evaluated as the literal 1
		}
		copy(parentTup, tup)
		parentTup[last] = 0
		j, ok := index[key(parentTup)]
		if !ok || int(j) >= i {
			panic(fmt.Sprintf("svm: basis enumeration lost parent of tuple %v", tup))
		}
		p.parent[i] = j
		p.pow[i] = int32(last*stride + tup[last])
	}
	return p
}

// fillPows fills the per-dimension power table (stride Degree+1) for x,
// identically to the naive transform's table.
func (pf *PolyFeatures) fillPows(x linalg.Vector, pows []float64) {
	stride := pf.Degree + 1
	for d := 0; d < pf.Dim; d++ {
		pows[d*stride] = 1
		xv := x[d] / pf.Scale
		for k := 1; k <= pf.Degree; k++ {
			pows[d*stride+k] = pows[d*stride+k-1] * xv
		}
	}
}

// features evaluates the program into f (length NumFeatures) from a filled
// power table.
func (p *program) features(pows, f []float64) {
	f[0] = 1
	for i := 1; i < len(f); i++ {
		f[i] = f[p.parent[i]] * pows[p.pow[i]]
	}
}

// score evaluates the program and accumulates w·f in one pass. The
// accumulation visits features in index order, so the result is
// bit-identical to linalg.Vector.Dot over the separately-materialized
// feature vector. scoreAVX2 repeats these operations 16 draws at a time.
func (p *program) score(w linalg.Vector, pows, f []float64) float64 {
	f[0] = 1
	s := 0.0
	s += w[0] // w[0]·1
	for i := 1; i < len(f); i++ {
		v := f[p.parent[i]] * pows[p.pow[i]]
		f[i] = v
		s += w[i] * v
	}
	return s
}
