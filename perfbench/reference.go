package main

import "time"

// The benchmark reports times in calibration-host seconds. On a shared
// 2-core x86-64 VM the host's speed drifts: the same rotation128 run
// (identical ops) measured 6.4 s to 8.6 s of wall time, and a fixed CPU
// loop ran up to 50% slower from one second to the next, with no CPU steal
// visible to the guest. Between ops (and around every set-up) the
// benchmark therefore times a slice of a fixed reference workload, and
// scales each op's measured time by how fast the slices just before and
// after it ran against refNominal. On six runs of that rotation128 seed
// the scaled wall time varied by 0.9% (coefficient of variation) where the
// measured one varied by 10%.
//
// refState is that reference: a pointer-free binary-heap event queue
// driving random read-modify-writes over a 4 MiB table. It is the
// benchmark's own code and calls nothing in the program, so no change to
// the program moves it; it neither allocates nor holds pointers, so the
// program's garbage collector adds no work to it (running the same churn8
// seed at GOGC=100 and GOGC=400 gave the same reference speed). What does
// slow it is the host: a busier neighbour on the shared cores or memory.
type refState struct {
	heap  []refEvent
	table []uint64
	rng   uint64
}

type refEvent struct{ at, key uint64 }

// refNominal is one slice's duration on the calibration host (2-core
// x86-64 VM at 2.0 GHz, Go 1.24).
const refNominal = 1.7e-3

const (
	refEvents     = 16384
	refTableWords = 1 << 19
)

func newRefState() *refState {
	return &refState{heap: make([]refEvent, 0, 512), table: make([]uint64, refTableWords), rng: 1}
}

func (r *refState) next() uint64 {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return r.rng
}

func (r *refState) push(e refEvent) {
	h := append(r.heap, e)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	r.heap = h
}

func (r *refState) pop() refEvent {
	h := r.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if m+1 < n && h[m+1].at < h[m].at {
			m++
		}
		if h[i].at <= h[m].at {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	r.heap = h
	return top
}

// slice runs one slice of the reference work and returns its duration in
// seconds; refNominal over it is the host's speed relative to the
// calibration host. The table is first brought back into cache, untimed:
// the op before evicted some of it, and how much depends on the program's
// footprint, which must not move the reference.
func (r *refState) slice() float64 {
	for i := 0; i < len(r.table); i += 8 {
		r.rng += r.table[i]
	}
	t := time.Now()
	r.heap = r.heap[:0]
	for i := uint64(0); i < 256; i++ {
		r.push(refEvent{at: r.next() % 1024, key: i})
	}
	for i := 0; i < refEvents; i++ {
		e := r.pop()
		a := r.next() % refTableWords
		r.table[a] += e.at
		b := (a ^ e.key*0x9E3779B9) % refTableWords
		r.table[b] ^= r.table[a]
		r.push(refEvent{at: e.at + 1 + r.table[b]%1024, key: e.key})
	}
	return time.Since(t).Seconds()
}
