package montecarlo

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"ecripse/internal/linalg"
)

// uniformSigma builds a constant per-dimension sigma vector.
func uniformSigma(dim int, s float64) linalg.Vector {
	v := linalg.NewVector(dim)
	for i := range v {
		v[i] = s
	}
	return v
}

// TestNaiveBatchedMatchesNaive pins NaiveBatched's replayed recording
// schedule to Naive over an equivalent scalar Trial, at batch-aligned and
// ragged lengths.
func TestNaiveBatchedMatchesNaive(t *testing.T) {
	trial := func(c *Counter) Trial {
		return func(rng *rand.Rand) bool {
			c.Add(1)
			return rng.NormFloat64() > 1.8
		}
	}
	for _, n := range []int{50, 256, 777} {
		for _, recordEvery := range []int{0, 37} {
			var c Counter
			want := Naive(rand.New(rand.NewSource(7)), trial(&c), n, &c, recordEvery)

			var c2 Counter
			staged := make([]float64, 64)
			draw := func(rng *rand.Rand, slot int) { staged[slot] = rng.NormFloat64() }
			label := func(slots int, fails []bool) {
				c2.Add(int64(slots))
				for i := 0; i < slots; i++ {
					fails[i] = staged[i] > 1.8
				}
			}
			got := NaiveBatched(context.Background(), rand.New(rand.NewSource(7)), draw, label, n, 64, &c2, recordEvery)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d recordEvery=%d: batched series diverged\nbatched %v\nscalar %v", n, recordEvery, got, want)
			}
			if c.Count() != c2.Count() {
				t.Fatalf("counter diverged: %d vs %d", c.Count(), c2.Count())
			}
		}
	}
}
