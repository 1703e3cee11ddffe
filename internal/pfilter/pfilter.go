// Package pfilter implements the particle-filter machinery of the paper's
// stage 1 (Section III-B, steps (1)–(4)): radial initialization on the
// failure boundary (the paper's bisection in BoundaryInit; a root solve of
// the signed margin in BoundaryInitPar), Gaussian-mixture prediction
// (eq. (15)), weight measurement (eq. (16)) and low-variance resampling,
// organized as an ensemble of independent filters so the two symmetric
// failure lobes of the SRAM cell are tracked without particle degeneracy.
package pfilter

import (
	"math"
	"math/rand"
	"sort"

	"ecripse/internal/linalg"
	"ecripse/internal/montecarlo"
	"ecripse/internal/randx"
)

// Weight scores a candidate particle; the paper uses
// w(x) = Pfail_RTN(x) · P_RDF(x) (eq. (16)), which for the RDF-only flow
// reduces to I(x)·P(x).
type Weight func(x linalg.Vector) float64

// Options configures the ensemble.
type Options struct {
	Particles  int     // particles per filter (default 50)
	Filters    int     // independent filters (default 2; the cell has 2 failure lobes)
	KernelStd  float64 // prediction-kernel sigma, normalized units (default 0.3)
	Iterations int     // default Run iterations (default 10, as in the paper)
}

func (o *Options) fill() {
	if o.Particles == 0 {
		o.Particles = 50
	}
	if o.Filters == 0 {
		o.Filters = 2
	}
	if o.KernelStd == 0 {
		o.KernelStd = 0.3
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
}

// Ensemble is a set of independent particle filters over the same weight
// landscape.
type Ensemble struct {
	opts    Options
	filters [][]linalg.Vector
	poolX   []linalg.Vector // every positively-weighted candidate ever scored
	poolW   []float64

	// Scratch for uniqueSources: marks[j] == markEpoch means source j was
	// already seen this round. The epoch bump makes the pass O(len(idx))
	// with no clearing and no per-round map allocation.
	marks     []int
	markEpoch int
}

// BoundaryInit performs the paper's step (1): directions uniform on the unit
// D-sphere, bisection along each ray for the failure boundary, one particle
// per direction that actually fails within radius rmax. fails is the
// indicator I(x) (simulation cost is counted by the caller's closure).
//
// The returned points lie on the failure boundary to within rtol. Directions
// that never fail inside rmax are dropped, so the result may hold fewer than
// directions points.
func BoundaryInit(rng *rand.Rand, dim, directions int, rmax, rtol float64, fails func(linalg.Vector) bool) []linalg.Vector {
	if rtol <= 0 {
		rtol = 0.05
	}
	var out []linalg.Vector
	for k := 0; k < directions; k++ {
		d := randx.SphereDirection(rng, dim)
		if !fails(d.Scale(rmax)) {
			continue
		}
		lo, hi := 0.0, rmax
		for hi-lo > rtol {
			mid := 0.5 * (lo + hi)
			if fails(d.Scale(mid)) {
				hi = mid
			} else {
				lo = mid
			}
		}
		out = append(out, d.Scale(hi)) // just inside the failure region
	}
	return out
}

// New builds an ensemble from initial boundary particles. The points are
// clustered into opts.Filters groups by k-means on position, so that each
// filter starts mode-pure and the per-filter resampling cannot merge the two
// failure lobes (the degeneracy the paper warns about). Each filter is then
// padded/truncated to opts.Particles by resampling its own members.
func New(rng *rand.Rand, opts Options, initial []linalg.Vector) *Ensemble {
	opts.fill()
	if len(initial) == 0 {
		panic("pfilter: no initial particles (no failing directions found)")
	}
	e := &Ensemble{opts: opts}
	groups := kmeans(rng, initial, opts.Filters)
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		f := make([]linalg.Vector, opts.Particles)
		for i := range f {
			f[i] = g[rng.Intn(len(g))].Clone()
		}
		e.filters = append(e.filters, f)
	}
	return e
}

// Warm rebuilds an ensemble from a previously exported particle cloud (the
// concatenation Particles() produced) without consuming any randomness: the
// cloud is split sequentially into opts.Filters groups, preserving the
// original per-filter grouping when the cloud came from an ensemble with the
// same geometry. Groups shorter than opts.Particles are padded by cycling
// their own members. This is the cross-point warm-start entry: a sweep
// planner seeds point i's filters from point i-1's final cloud instead of
// re-running boundary search.
func Warm(opts Options, cloud []linalg.Vector) *Ensemble {
	opts.fill()
	if len(cloud) == 0 {
		panic("pfilter: empty warm cloud")
	}
	e := &Ensemble{opts: opts}
	nf := opts.Filters
	if nf > len(cloud) {
		nf = len(cloud)
	}
	per := len(cloud) / nf
	for fi := 0; fi < nf; fi++ {
		g := cloud[fi*per:]
		if fi < nf-1 {
			g = g[:per]
		}
		f := make([]linalg.Vector, opts.Particles)
		for i := range f {
			f[i] = g[i%len(g)].Clone()
		}
		e.filters = append(e.filters, f)
	}
	return e
}

// NumFilters returns the number of non-empty filters.
func (e *Ensemble) NumFilters() int { return len(e.filters) }

// Particles returns the union of all filters' current particles.
func (e *Ensemble) Particles() []linalg.Vector {
	var out []linalg.Vector
	for _, f := range e.filters {
		out = append(out, f...)
	}
	return out
}

// FilterParticles returns the current particles of filter i.
func (e *Ensemble) FilterParticles(i int) []linalg.Vector { return e.filters[i] }

// StepRecord captures one iteration of one filter for observability
// (Fig. 4 renders these snapshots).
type StepRecord struct {
	Candidates []linalg.Vector
	Weights    []float64
	Resampled  []linalg.Vector
	// Unique is the number of distinct candidates that survived resampling —
	// a collapse diagnostic (Unique=1 means the filter sits on one point).
	// Zero on a degenerate round where the previous cloud was kept.
	Unique int
	// WeightSum is the round's positive weight mass. Zero marks a starved
	// lobe: no candidate found failure probability, the cloud was kept.
	WeightSum float64
}

// uniqueSources counts the distinct source indices in a resampling index
// vector (entries in [0, len(idx)), as systematic resampling produces) via
// the ensemble's epoch-marked scratch — an index-mark pass instead of the
// map a naive implementation would allocate per filter per round.
func (e *Ensemble) uniqueSources(idx []int) int {
	if len(e.marks) < len(idx) {
		e.marks = make([]int, len(idx))
		e.markEpoch = 0
	}
	e.markEpoch++
	epoch := e.markEpoch
	n := 0
	for _, j := range idx {
		if e.marks[j] != epoch {
			e.marks[j] = epoch
			n++
		}
	}
	return n
}

// Step advances every filter one prediction/measurement/resampling round and
// returns per-filter records. If every candidate of a filter receives zero
// weight, that filter keeps its previous particles for this round.
func (e *Ensemble) Step(rng *rand.Rand, weight Weight) []StepRecord {
	records := make([]StepRecord, len(e.filters))
	for fi, particles := range e.filters {
		n := len(particles)
		cands := make([]linalg.Vector, n)
		ws := make([]float64, n)
		dim := len(particles[0])
		for i := 0; i < n; i++ {
			// Prediction (eq. (15)): mixture kernel centred on a random
			// current particle.
			base := particles[rng.Intn(n)]
			x := make(linalg.Vector, dim)
			for d := range x {
				x[d] = base[d] + e.opts.KernelStd*rng.NormFloat64()
			}
			cands[i] = x
			ws[i] = weight(x) // Measurement (eq. (16))
		}
		total := 0.0
		for _, w := range ws {
			if w > 0 {
				total += w
			}
		}
		var next []linalg.Vector
		unique := 0
		if total <= 0 || math.IsNaN(total) {
			next = particles // degenerate round: keep previous cloud
			total = 0
		} else {
			idx := randx.SystematicResample(rng, ws, n)
			next = make([]linalg.Vector, n)
			for i, j := range idx {
				next[i] = cands[j]
			}
			unique = e.uniqueSources(idx)
		}
		records[fi] = StepRecord{Candidates: cands, Weights: ws, Resampled: next, Unique: unique, WeightSum: total}
		e.filters[fi] = next
		for i, w := range ws {
			if w > 0 {
				e.poolX = append(e.poolX, cands[i])
				e.poolW = append(e.poolW, w)
			}
		}
	}
	return records
}

// Run executes iters rounds (the paper reports ten rounds suffice).
func (e *Ensemble) Run(rng *rand.Rand, weight Weight, iters int) {
	if iters <= 0 {
		iters = e.opts.Iterations
	}
	for i := 0; i < iters; i++ {
		e.Step(rng, weight)
	}
}

// GMM builds the importance-sampling alternative distribution of eq. (18):
// an equal-weight Gaussian mixture centred on every current particle with
// the given shared diagonal sigma (defaulting to the prediction kernel).
func (e *Ensemble) GMM(sigma linalg.Vector) *montecarlo.GMM {
	parts := e.Particles()
	if sigma == nil {
		dim := len(parts[0])
		sigma = make(linalg.Vector, dim)
		for i := range sigma {
			sigma[i] = e.opts.KernelStd
		}
	}
	means := make([]linalg.Vector, len(parts))
	for i, p := range parts {
		means[i] = p.Clone()
	}
	return &montecarlo.GMM{Means: means, Sigma: sigma}
}

// PoolGMM builds the eq.-(18) alternative distribution from the cumulative
// pool of positively-weighted candidates scored across every measurement
// round — a population-Monte-Carlo refinement that keeps the diversity the
// per-round resampling discards. At most maxComp components are kept (the
// highest-weight ones); the weights are the measured I(x)·P(x) scores, so
// the mixture approximates the optimal alternative distribution directly.
// Falls back to the resampled-particle mixture when the pool is empty.
func (e *Ensemble) PoolGMM(sigma linalg.Vector, maxComp int) *montecarlo.GMM {
	if len(e.poolX) == 0 {
		return e.GMM(sigma)
	}
	xs, ws := e.poolX, e.poolW
	if maxComp > 0 && len(xs) > maxComp {
		// Keep half by weight (the Qopt peak) and half uniformly at random
		// (tangential coverage of the failure manifold — the peak alone
		// underrepresents the diffuse mass that dominates Pfail in high
		// dimension).
		type entry struct {
			x linalg.Vector
			w float64
		}
		entries := make([]entry, len(xs))
		for i := range xs {
			entries[i] = entry{xs[i], ws[i]}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].w > entries[j].w })
		top := maxComp / 2
		kept := append([]entry(nil), entries[:top]...)
		rest := entries[top:]
		for _, i := range rand.New(rand.NewSource(int64(len(entries)))).Perm(len(rest))[:maxComp-top] {
			kept = append(kept, rest[i])
		}
		xs = make([]linalg.Vector, len(kept))
		ws = make([]float64, len(kept))
		for i, en := range kept {
			xs[i], ws[i] = en.x, en.w
		}
	}
	if sigma == nil {
		sigma = poolBandwidth(xs, e.opts.KernelStd)
	}
	means := make([]linalg.Vector, len(xs))
	for i, p := range xs {
		means[i] = p.Clone()
	}
	return &montecarlo.GMM{Means: means, Sigma: sigma, Weights: append([]float64(nil), ws...)}
}

// poolBandwidth is a Silverman-style kernel bandwidth from the unweighted
// spread of the kept components: sigma_d = 1.06·std_d·n^(−1/(D+4)), floored
// at the prediction kernel.
func poolBandwidth(xs []linalg.Vector, floor float64) linalg.Vector {
	dim := len(xs[0])
	n := float64(len(xs))
	factor := 1.06 * math.Pow(n, -1/float64(dim+4))
	sigma := make(linalg.Vector, dim)
	for d := 0; d < dim; d++ {
		var mean, m2 float64
		for i, p := range xs {
			delta := p[d] - mean
			mean += delta / float64(i+1)
			m2 += delta * (p[d] - mean)
		}
		s := 0.0
		if len(xs) > 1 {
			s = factor * math.Sqrt(m2/(n-1))
		}
		if s < floor {
			s = floor
		}
		sigma[d] = s
	}
	return sigma
}

// PoolSize returns the number of pooled candidates.
func (e *Ensemble) PoolSize() int { return len(e.poolX) }

// AdaptiveSigma returns a per-dimension bandwidth for the eq.-(18) mixture:
// the average within-filter standard deviation of the particle cloud,
// floored at floor. Using within-filter spread (rather than the global
// cloud) keeps the bandwidth from being inflated by the distance between
// failure lobes tracked by different filters.
func (e *Ensemble) AdaptiveSigma(floor float64) linalg.Vector {
	dim := len(e.filters[0][0])
	sigma := make(linalg.Vector, dim)
	for d := 0; d < dim; d++ {
		total := 0.0
		for _, f := range e.filters {
			var mean, m2 float64
			for i, p := range f {
				delta := p[d] - mean
				mean += delta / float64(i+1)
				m2 += delta * (p[d] - mean)
			}
			if len(f) > 1 {
				total += math.Sqrt(m2 / float64(len(f)-1))
			}
		}
		s := total / float64(len(e.filters))
		if s < floor {
			s = floor
		}
		sigma[d] = s
	}
	return sigma
}

// ESS returns the effective sample size of a weight vector,
// (Σw)² / Σw² — a standard degeneracy diagnostic.
func ESS(weights []float64) float64 {
	var s, s2 float64
	for _, w := range weights {
		if w > 0 {
			s += w
			s2 += w * w
		}
	}
	if s2 == 0 {
		return 0
	}
	return s * s / s2
}

// kmeans clusters points into at most k groups (k small). Empty clusters are
// dropped. Deterministic given rng.
func kmeans(rng *rand.Rand, pts []linalg.Vector, k int) [][]linalg.Vector {
	if k <= 1 || len(pts) <= k {
		return [][]linalg.Vector{pts}
	}
	// Init: k distinct random points.
	centers := make([]linalg.Vector, k)
	perm := rng.Perm(len(pts))
	for i := 0; i < k; i++ {
		centers[i] = pts[perm[i]].Clone()
	}
	assign := make([]int, len(pts))
	for iter := 0; iter < 50; iter++ {
		changed := false
		for i, p := range pts {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				if d := p.Dist(ctr); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		for c := range centers {
			sum := linalg.NewVector(len(pts[0]))
			cnt := 0
			for i, p := range pts {
				if assign[i] == c {
					sum.AddInPlace(p)
					cnt++
				}
			}
			if cnt > 0 {
				centers[c] = sum.Scale(1 / float64(cnt))
			}
		}
	}
	groups := make([][]linalg.Vector, k)
	for i, p := range pts {
		groups[assign[i]] = append(groups[assign[i]], p)
	}
	var out [][]linalg.Vector
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}
