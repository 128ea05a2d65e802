package main

import "testing"

// The chase must visit every slot before it returns to the start, or the
// kernel would settle into a short cycle that fits in the cache and stop
// measuring memory latency.
func TestCalibChaseIsOneCycle(t *testing.T) {
	k := newCalibKernel()
	p, n := k.chase[0], 1
	for ; p != 0; n++ {
		p = k.chase[p]
	}
	if n != calibChase {
		t.Fatalf("chase cycle through slot 0 has %d slots, want %d", n, calibChase)
	}
	if k.run() <= 0 {
		t.Fatal("kernel run took no time")
	}
}
