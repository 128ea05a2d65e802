package main

import (
	"sort"
	"time"
)

// A shared host's speed can drift by tens of percent over seconds to
// minutes, which no number of passes inside one run averages away. So every timed runtime.Run is bracketed
// by runs of a fixed calibration kernel, and the end-to-end time is
// reported in units of that kernel's time. The kernel is frozen here,
// outside the program: a change to the program moves the ratio, a
// slower host moves both sides of it.
//
// The kernel mixes what the simulator spends its time on: about two
// thirds of its time goes to dependent loads through a table larger
// than the last-level cache, the rest to in-cache work (map inserts and
// lookups, short-lived small allocations, a float stencil and a sort).
type calibKernel struct {
	chase []uint32  // one random cycle through calibChase slots
	grid  []float64 // stencil input and output, calibGrid each
	next  []float64
	keys  []int
}

const (
	calibChase = 1 << 22 // 16 MiB of uint32
	calibSteps = 1 << 18
	calibMap   = 1 << 16
	calibGrid  = 1 << 14
	calibSweep = 128
	calibSort  = 1 << 16
)

type calibNode struct {
	next *calibNode
	v    [4]int
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{
		chase: make([]uint32, calibChase),
		grid:  make([]float64, calibGrid),
		next:  make([]float64, calibGrid),
		keys:  make([]int, calibSort),
	}
	// Sattolo's algorithm from a fixed LCG: a single cycle through every
	// slot, the same on every run.
	perm := make([]uint32, calibChase)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(1)
	for i := calibChase - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		k.chase[perm[i]] = perm[(i+1)%calibChase]
	}
	return k
}

// sink keeps the kernel's results live so the compiler cannot drop work.
var sink int

// run does the kernel's fixed work once and returns its wall time.
func (k *calibKernel) run() time.Duration {
	t0 := time.Now()
	acc := 0

	p := uint32(0)
	for i := 0; i < calibSteps; i++ {
		p = k.chase[p]
	}
	acc += int(p)

	m := make(map[int]int, calibMap/4)
	for i := 0; i < calibMap; i++ {
		m[(i*7919)%calibMap] += i
	}
	for i := 0; i < calibMap; i++ {
		acc += m[i]
	}

	var head *calibNode
	for i := 0; i < calibMap; i++ {
		head = &calibNode{next: head, v: [4]int{i}}
		if i%64 == 0 {
			head = nil
		}
	}
	if head != nil {
		acc += head.v[0]
	}

	for i := range k.grid {
		k.grid[i] = float64(i % 97)
	}
	for s := 0; s < calibSweep; s++ {
		for i := 1; i < calibGrid-1; i++ {
			k.next[i] = 0.25*k.grid[i-1] + 0.5*k.grid[i] + 0.25*k.grid[i+1]
		}
		k.grid, k.next = k.next, k.grid
	}
	acc += int(k.grid[calibGrid/2])

	x := uint64(7)
	for i := range k.keys {
		x = x*6364136223846793005 + 1442695040888963407
		k.keys[i] = int(x >> 35)
	}
	sort.Ints(k.keys)
	acc += k.keys[calibSort/2]

	sink += acc
	return time.Since(t0)
}
