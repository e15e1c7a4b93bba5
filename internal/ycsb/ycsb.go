// Package ycsb reimplements the workload machinery of the Yahoo!
// Cloud Serving Benchmark (Cooper et al., SoCC'10) that the paper's
// macro evaluation uses (§VI-C): a zipfian request-key generator with
// the classic Gray et al. algorithm (the same one YCSB core uses,
// supporting the default skew θ = 0.99), its scrambled variant that
// spreads hot ranks over the whole key space, and the read/update mixes
// of the evaluated workloads.
//
// Generators are deterministic given a seed; each worker should own
// its generator (they share only immutable precomputed constants).
package ycsb

import (
	"math"
	"math/rand"

	"spash/internal/hash"
)

// zipfConsts holds the precomputed constants of Gray's algorithm;
// they depend only on (n, theta) and are shared between workers.
type zipfConsts struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 1 + 0.5^theta
}

func newZipfConsts(n uint64, theta float64) *zipfConsts {
	zetan := zeta(n, theta)
	zeta2 := zeta(2, theta)
	c := &zipfConsts{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		half:  1 + math.Pow(0.5, theta),
	}
	c.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/zetan)
	return c
}

// zeta computes the generalised harmonic number H_{n,theta}.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Zipfian generates zipf-distributed ranks: rank 0 is the most
// popular. The default YCSB skew is theta = 0.99.
type Zipfian struct {
	c   *zipfConsts
	rng *rand.Rand
}

// DefaultTheta is YCSB's default zipfian constant.
const DefaultTheta = 0.99

// NewZipfian returns a zipfian rank generator over [0, n) with the
// given skew. Precomputation is O(n).
func NewZipfian(n uint64, theta float64, seed int64) *Zipfian {
	return &Zipfian{c: newZipfConsts(n, theta), rng: rand.New(rand.NewSource(seed))}
}

// Fork returns an independent generator with the same distribution
// (sharing the precomputed constants) and its own seed.
func (z *Zipfian) Fork(seed int64) *Zipfian {
	return &Zipfian{c: z.c, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next zipf-distributed rank.
func (z *Zipfian) Next() uint64 {
	c := z.c
	u := z.rng.Float64()
	uz := u * c.zetan
	if uz < 1 {
		return 0
	}
	if uz < c.half {
		return 1
	}
	r := uint64(float64(c.n) * math.Pow(c.eta*u-c.eta+1, c.alpha))
	if r >= c.n {
		r = c.n - 1
	}
	return r
}

// Scrambled wraps a zipfian rank generator and spreads the hot ranks
// pseudo-randomly over the key space, as YCSB's
// ScrambledZipfianGenerator does — hot keys should not be physically
// clustered.
type Scrambled struct {
	z *Zipfian
}

// NewScrambled returns a scrambled-zipfian key generator over [0, n).
func NewScrambled(n uint64, theta float64, seed int64) *Scrambled {
	return &Scrambled{z: NewZipfian(n, theta, seed)}
}

// Fork returns an independent generator sharing precomputed state.
func (s *Scrambled) Fork(seed int64) *Scrambled {
	return &Scrambled{z: s.z.Fork(seed)}
}

// Next returns the next key id.
func (s *Scrambled) Next() uint64 {
	return scramble(s.z.Next(), s.z.c.n)
}

func scramble(rank, n uint64) uint64 {
	return hash.Sum64Uint64(rank) % n
}
