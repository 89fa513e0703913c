package main

import (
	"encoding/binary"
	"math"
)

// rng is splitmix64. The benchmark derives every input from it, apart
// from any code of the program under test, so the bytes an op expects
// are never produced by an mbTLS code path.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// derive returns an independent stream for one named purpose (a
// client, the corpus) of a run's seed.
func derive(seed uint64, stream uint64) *rng {
	r := newRNG(seed ^ (stream * 0xd1b54a32d192ed03))
	r.next()
	return r
}

// corpusSize bounds every object: bulk's 1 MiB objects start anywhere
// in the first 3 MiB.
const corpusSize = 4 << 20

// corpus is the seeded byte pool every payload is cut from. The client
// and the origin each build their own copy from the seed.
type corpus struct{ data []byte }

func newCorpus(seed uint64) *corpus {
	r := derive(seed, 1)
	c := &corpus{data: make([]byte, corpusSize)}
	for i := 0; i < len(c.data); i += 8 {
		binary.LittleEndian.PutUint64(c.data[i:], r.next())
	}
	return c
}

// object returns the size bytes of object id.
func (c *corpus) object(id uint64, size int) []byte {
	span := uint64(len(c.data) - size + 1)
	off := id % span
	return c.data[off : off+uint64(size)]
}

// Response sizes of the rpc workload: sizeSlots stratified quantiles of
// a log-uniform distribution over [minBody, maxBody], so every seed
// draws the same multiset of sizes and only their order differs.
const (
	minBody   = 256
	maxBody   = 32 << 10
	sizeSlots = 1024
)

// bodySizes returns the seeded order of the rpc response sizes.
func bodySizes(r *rng) []int {
	sizes := make([]int, sizeSlots)
	ratio := math.Log(float64(maxBody) / float64(minBody))
	for i := range sizes {
		u := (float64(i) + 0.5) / sizeSlots
		sizes[i] = int(float64(minBody) * math.Exp(u*ratio))
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	return sizes
}
