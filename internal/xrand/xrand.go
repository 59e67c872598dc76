// Package xrand provides a small deterministic random source shared by
// the corpus generators, the data profiler's sampler, and the
// benchmark harness. Everything downstream of a seed is reproducible,
// which the experiment tables rely on.
package xrand

// Rand is a splitmix64-based generator. The zero value is NOT valid;
// use New.
type Rand struct{ state uint64 }

// New returns a generator seeded with seed (0 is remapped).
func New(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next raw value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns an int uniform in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a float uniform in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Pick returns a uniformly random element of the non-empty slice.
func Pick[T any](r *Rand, items []T) T {
	return items[r.Intn(len(items))]
}

// Shuffle permutes the slice in place.
func Shuffle[T any](r *Rand, items []T) {
	for i := len(items) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		items[i], items[j] = items[j], items[i]
	}
}
