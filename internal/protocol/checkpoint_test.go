package protocol

import (
	"reflect"
	"testing"

	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/config"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/tempest"
)

// quiescentHarness runs a short program to completion: every node
// writes each block of its own pages, then reads every block of the
// allocation. The machine it leaves behind is quiescent and has a
// directory entry per remotely read block, cached read-only copies on
// every node, and one completed barrier epoch.
func quiescentHarness(t *testing.T, nodes, pages int) *harness {
	t.Helper()
	h := newHarness(t, nodes, pages, config.DualCPU)
	end := h.base + pages*h.space.Machine().PageSize
	bs := h.space.BlockSize()
	for id := 0; id < nodes; id++ {
		id := id
		h.run(id, "touch", func(p *sim.Proc, n *tempest.Node) {
			for a := h.base; a < end; a += bs {
				if h.space.Home(a) == id {
					n.StoreF64(p, a, float64(a))
				}
			}
			h.c.Barrier(p, n)
			for a := h.base; a < end; a += bs {
				n.LoadF64(p, a)
			}
		})
	}
	if err := h.c.Env.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.p.Quiescent() {
		t.Fatal("cluster not quiescent after the program finished")
	}
	return h
}

// maxCheckpointAllocs bounds a warm Proto.Checkpoint. The block images
// and directory sets are copied straight into the reused buffer and the
// capture scratch is reused, so nothing is allocated at all.
const maxCheckpointAllocs = 0

// TestCheckpointAllocsConstant: once the buffer and the capture scratch
// have reached their high-water mark, a checkpoint's allocations are a
// small constant, independent of how many blocks and directory entries
// it encodes.
func TestCheckpointAllocsConstant(t *testing.T) {
	allocs := func(pages int) (float64, int) {
		h := quiescentHarness(t, 4, pages)
		buf := h.p.Checkpoint(nil) // warm-up: sizes the buffer and the scratch
		n := testing.AllocsPerRun(20, func() { buf = h.p.Checkpoint(buf) })
		dir := 0
		for _, np := range h.p.nodes {
			dir += len(np.dir)
		}
		return n, dir
	}
	small, smallDir := allocs(4)
	large, largeDir := allocs(32)
	if largeDir <= smallDir {
		t.Fatalf("larger cluster image has %d directory entries, smaller %d", largeDir, smallDir)
	}
	if large > small || large > maxCheckpointAllocs {
		t.Fatalf("warm checkpoint allocs: %v with %d directory entries, %v with %d (want constant, <= %d)",
			small, smallDir, large, largeDir, maxCheckpointAllocs)
	}
}

// TestCheckpointBufferReuse swaps two buffers across three checkpoints,
// the way crash recovery keeps its recovery point, with memory mutated
// between captures. The capture aliases live memory, so the test checks
// the kept blob holds the state of its own epoch: it decodes (checksum
// included) and restores that state, not the live one, and the spare
// buffer is untouched by the capture that reused the other.
func TestCheckpointBufferReuse(t *testing.T) {
	h := quiescentHarness(t, 4, 8)
	b := h.space.Block(h.addrOnPage(0, 0)) // homed at node 0, cached at node 1
	set := func(v byte) {
		h.c.Nodes[0].Mem.BlockData(b)[0] = v
		h.c.Nodes[1].Mem.BlockData(b)[0] = v
	}

	set(1)
	bufA := h.p.Checkpoint(nil)
	set(2)
	bufB := h.p.Checkpoint(nil)
	set(3)
	kept := h.p.Checkpoint(bufA)
	if &kept[0] != &bufA[0] {
		t.Fatal("a same-sized checkpoint did not reuse its buffer")
	}
	set(4) // live state moves on past the kept epoch

	image := func(blob []byte, node int) byte {
		t.Helper()
		s, err := checkpoint.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		for _, bi := range s.Nodes[node].Blocks {
			if int(bi.Block) == b {
				return bi.Data[0]
			}
		}
		t.Fatalf("node %d image lacks block %d", node, b)
		return 0
	}
	for node := 0; node < 2; node++ {
		if got := image(kept, node); got != 3 {
			t.Fatalf("kept checkpoint: node %d block byte = %d, want 3 (its own epoch)", node, got)
		}
		if got := image(bufB, node); got != 2 {
			t.Fatalf("spare checkpoint: node %d block byte = %d, want 2", node, got)
		}
	}

	snap, err := checkpoint.Decode(kept)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newHarness(t, 4, 8, config.DualCPU)
	if err := fresh.p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		if got := fresh.c.Nodes[node].Mem.BlockData(b)[0]; got != 3 {
			t.Fatalf("restored node %d block byte = %d, want 3", node, got)
		}
	}
	// Everything else round-trips too: capturing the restored machine
	// reproduces the kept snapshot, up to the fresh cluster's clock.
	again, err := checkpoint.Decode(fresh.p.Checkpoint(nil))
	if err != nil {
		t.Fatal(err)
	}
	again.SimTime = snap.SimTime
	if !reflect.DeepEqual(again, snap) {
		t.Fatal("checkpoint of the restored cluster differs from the snapshot it was restored from")
	}
}
