package main

import (
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The host speed probe. The benchmark runs on shared virtual machines
// whose speed drifts by a quarter within minutes (other guests' load
// changes both CPU steal and the speed of the CPU time a guest does
// get), which moves every time-based metric of every workload
// together. A fixed kernel that shares nothing with the engine — a
// memory-latency walk, a sort and a memory-bandwidth pass — is timed
// at the start and end of each run; the gated time-based metrics are
// scaled by probeNominal / measured probe time, so they read as on a
// host whose probe takes probeNominal. The raw values are printed
// beside them.

// probeNominal is the probe's median time on the 2-vCPU host the
// benchmark was tuned on.
const probeNominal = 85 * time.Millisecond

// probeRepeats is how many probe runs a run makes at each end.
const probeRepeats = 5

// probe holds the kernel's data, allocated before the timed part so
// the timed part allocates nothing and the process's heap and garbage
// collector do not change its work.
type probe struct {
	chain []uint32 // a random cycle over 8 Mi slots (32 MB)
	keys  []uint64
	buf   []uint64
	sink  uint64
}

func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{chain: make([]uint32, 8<<20), keys: make([]uint64, 1<<18), buf: make([]uint64, 1<<18)}
	// Sattolo's algorithm: a uniformly random single cycle.
	for i := range p.chain {
		p.chain[i] = uint32(i)
	}
	for i := len(p.chain) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.chain[i], p.chain[j] = p.chain[j], p.chain[i]
	}
	for i := range p.keys {
		p.keys[i] = rng.Uint64()
	}
	return p
}

// once runs the kernel: a dependent walk along the random cycle
// (memory latency), a sort of a copy of the keys (compute and cache)
// and a hash over the whole cycle array (memory bandwidth).
func (p *probe) once() time.Duration {
	start := time.Now()
	var at uint32
	for i := 0; i < 1<<18; i++ {
		at = p.chain[at]
	}
	copy(p.buf, p.keys)
	slices.Sort(p.buf)
	h := uint64(14695981039346656037)
	for _, v := range p.chain {
		h = (h ^ uint64(v)) * 1099511628211
	}
	p.sink += uint64(at) + h + p.buf[len(p.buf)/2]
	return time.Since(start)
}

// probeHost times the kernel probeRepeats times. Its 36 MB are garbage
// once it returns and are collected before it does, so they do not
// stay live beside the system under test and change its garbage
// collection pacing.
func probeHost() []time.Duration {
	p := newProbe()
	out := make([]time.Duration, probeRepeats)
	for i := range out {
		out[i] = p.once()
	}
	p = nil
	runtime.GC()
	return out
}
