package main

import (
	"math"
	"math/rand"
	"strconv"
)

// splitmix is the SplitMix64 generator. Request generators need many
// independent, cheaply seeded streams (one per request or pool entry), which
// math/rand's default source cannot give: seeding it costs a 607-word
// warm-up.
type splitmix struct{ s uint64 }

func (m *splitmix) Uint64() uint64 {
	m.s += 0x9e3779b97f4a7c15
	z := m.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (m *splitmix) Int63() int64    { return int64(m.Uint64() >> 1) }
func (m *splitmix) Seed(seed int64) { m.s = uint64(seed) }

// newRand returns a generator whose stream is a pure function of keys.
func newRand(keys ...uint64) *rand.Rand {
	m := &splitmix{}
	for _, k := range keys {
		m.s ^= k
		m.s = m.Uint64()
	}
	return rand.New(m)
}

// Stream identifiers keep the request streams of different phases apart.
const (
	streamWarm uint64 = iota + 1
	streamLoad
	streamPool
	streamIngest
	streamProbe
)

// noisyRender returns img plus N(0, sigma²) noise per pixel, clipped to
// [0,1] like a rendered image.
func noisyRender(img []float64, sigma float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(img))
	for i, v := range img {
		v += sigma * rng.NormFloat64()
		out[i] = math.Min(1, math.Max(0, v))
	}
	return out
}

func appendFloat(buf []byte, f float64) []byte {
	return strconv.AppendFloat(buf, f, 'g', -1, 64)
}
