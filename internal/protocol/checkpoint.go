// Barrier-consistent checkpoint capture and restore.
//
// The crash-recovery layer snapshots the protocol at synchronization
// epochs where the whole machine is provably quiescent: nothing in
// flight on the wire, no handler invocations queued, no deferred
// protocol work armed, no blocking miss outstanding, no directory
// transaction collecting, and no coalescer buffer open. At such an
// instant every block's truth is fully captured by memory images, tags,
// dirty masks, and directory masks — Restore rebuilds an equivalent
// machine on a fresh cluster and the run resumes as if the epoch had
// just completed.
package protocol

import (
	"cmp"
	"fmt"
	"slices"

	"hpfdsm/internal/checkpoint"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/sim"
)

// Quiescent reports whether the cluster is checkpointable right now.
// Intended to be called at a barrier's all-arrived instant; mid-epoch
// it is almost always false.
func (p *Proto) Quiescent() bool {
	net := p.C.Net
	if net.Inflight() != 0 || !net.ChannelsQuiescent() {
		return false
	}
	for _, np := range p.nodes {
		if np.defers != 0 {
			return false
		}
		if np.n.HandlersQueued() != 0 || np.n.Pending() != 0 {
			return false
		}
		if len(np.fill) != 0 {
			return false
		}
		if np.ccRecv.Value() != np.ccExpected {
			return false
		}
		if np.coal != nil && np.coal.PendingAny() {
			return false
		}
		if len(np.relay) != 0 {
			return false
		}
		// Pure any-check over the directory: quiescence is the
		// conjunction over all entries, order-free, mutation-free.
		//simlint:commutative
		for _, e := range np.dir {
			if e.busy || e.pending != 0 || len(e.waitQ) != 0 {
				return false
			}
		}
	}
	return true
}

// Checkpoint captures the cluster's protocol-visible state, encodes it
// into dst[:0] (checkpoint.Encode) and returns the blob. The caller
// must have established quiescence (Quiescent); a busy directory entry
// here is a bug, not a race.
//
// State is copied exactly once, by the encoder: the capture is a view
// whose block images and directory sets alias live node memory, and
// whose per-node tag, dirty, mapped, flag and key slices are scratch
// owned by p and reused across calls. Aliasing is sound because the
// call runs synchronously at the all-arrived instant — no handler or
// compute process can run between the capture and the encode — and the
// view never leaves this package.
func (p *Proto) Checkpoint(dst []byte) []byte {
	return checkpoint.Encode(dst, p.capture())
}

// capture fills p.snap with a view of the current state (see
// Checkpoint).
//
//simlint:hotpath
func (p *Proto) capture() *checkpoint.Snapshot {
	c := p.C
	s := &p.snap
	s.Epoch = c.Epoch()
	s.SimTime = int64(c.Env.Now())
	s.TimerStart = int64(c.TimerStart)
	s.ReduceGen = c.ReduceGen()
	s.Journal = c.ReduceJournal
	s.Nodes = sized(s.Nodes, len(p.nodes))
	for i, np := range p.nodes {
		np.capture(&s.Nodes[i])
	}
	return s
}

// capture fills ns with a view of this node's state, reusing ns's
// slices. Directory entries are collected in ascending block order by
// the same walk that reads the tags, so no key sort is needed.
//
//simlint:hotpath
func (np *nodeProto) capture(ns *checkpoint.NodeState) {
	mem := np.n.Mem
	sp := mem.Space()
	nb := sp.NumBlocks()
	npg := sp.NumPages()
	ns.Tags = sized(ns.Tags, nb)
	ns.Dirty = sized(ns.Dirty, nb)
	ns.Mapped = sized(ns.Mapped, npg)
	blocks, dir := ns.Blocks[:0], ns.Dir[:0]
	// Page by page: a page has one home, so the home test runs once per
	// page instead of once per block.
	bpp := sp.Machine().PageSize / sp.BlockSize()
	for first := 0; first < nb; first += bpp {
		home := sp.HomeOfBlock(first) == np.id
		for b := first; b < min(first+bpp, nb); b++ {
			tag, dirty := mem.Tag(b), mem.Dirty(b)
			ns.Tags[b] = byte(tag)
			ns.Dirty[b] = dirty
			// A block matters if this node is its home (home memory is
			// the authoritative copy) or holds a live or dirty cached
			// copy; everything else is reconstructible garbage.
			if home || tag != memory.Invalid || dirty != 0 {
				//simlint:ignore hotalloc -- the block list grows to its high-water mark once; later captures reuse its capacity
				blocks = append(blocks, checkpoint.BlockImage{Block: int32(b), Data: mem.BlockData(b)})
			}
			if !home {
				continue
			}
			e := np.dir[b]
			if e == nil {
				continue
			}
			if e.busy || e.pending != 0 || len(e.waitQ) != 0 {
				panic(fmt.Sprintf("protocol: capture with busy directory entry for block %d on node %d", b, np.id))
			}
			//simlint:ignore hotalloc -- the directory list grows to its high-water mark once; later captures reuse its capacity
			dir = append(dir, checkpoint.DirEntry{
				Block: int32(b), Sharers: e.sharers.words(), Writers: e.writers.words(), Stale: e.stale.words(),
			})
		}
	}
	if len(dir) != len(np.dir) {
		panic(fmt.Sprintf("protocol: node %d has %d directory entries, %d inside the segment", np.id, len(np.dir), len(dir)))
	}
	ns.Blocks, ns.Dir = blocks, dir
	for pg := 0; pg < npg; pg++ {
		var x byte
		if mem.Mapped(pg) {
			x = 1
		}
		ns.Mapped[pg] = x
	}
	keys := ns.IWDone[:0]
	for k := range np.iwDone {
		//simlint:ignore hotalloc -- the key list grows to its high-water mark once; later captures reuse its capacity
		keys = append(keys, checkpoint.IWKey{A: int32(k[0]), B: int32(k[1])})
	}
	slices.SortFunc(keys, compareIWKey)
	ns.IWDone = keys
	ns.CCFrames = packFlags(ns.CCFrames, np.ccFrames)
	ns.CCTouched = packFlags(ns.CCTouched, np.ccTouched)
	ns.SCHold = packFlags(ns.SCHold, np.scHold)
	ns.CCRecv = np.ccRecv.Value()
	ns.CCExpected = np.ccExpected
	ns.Stats = *np.n.St
}

// Restore installs a snapshot on a freshly built cluster (same machine
// configuration, no traffic yet). It rebuilds memory images, tags,
// dirty masks, directory state, and the compiler-directed transfer
// bookkeeping, and rebases the cluster's epoch, reduction generation,
// journal, and timer start.
func (p *Proto) Restore(s *checkpoint.Snapshot) error {
	c := p.C
	sp := c.Space
	nb := sp.NumBlocks()
	npg := sp.NumPages()
	if len(s.Nodes) != len(p.nodes) {
		return fmt.Errorf("protocol: snapshot has %d nodes, cluster has %d", len(s.Nodes), len(p.nodes))
	}
	for i, np := range p.nodes {
		ns := &s.Nodes[i]
		if len(ns.Tags) != nb || len(ns.Dirty) != nb || len(ns.Mapped) != npg {
			return fmt.Errorf("protocol: snapshot node %d sized for a different segment (%d blocks, %d pages; want %d, %d)",
				i, len(ns.Tags), len(ns.Mapped), nb, npg)
		}
		mem := np.n.Mem
		for _, bi := range ns.Blocks {
			b := int(bi.Block)
			if b < 0 || b >= nb || len(bi.Data) != sp.BlockSize() {
				return fmt.Errorf("protocol: snapshot node %d has bad block image %d (%d bytes)", i, b, len(bi.Data))
			}
			mem.InstallBlock(b, bi.Data)
		}
		for b := 0; b < nb; b++ {
			mem.SetTag(b, memory.Tag(ns.Tags[b]))
			mem.SetDirtyMask(b, ns.Dirty[b])
		}
		for pg := 0; pg < npg; pg++ {
			if ns.Mapped[pg] != 0 {
				mem.SetMapped(pg)
			}
		}
		np.dir = make(map[int]*dirEntry, len(ns.Dir))
		nnodes := len(p.nodes)
		words := nsWords(nnodes)
		for _, d := range ns.Dir {
			b := int(d.Block)
			if b < 0 || b >= nb || sp.HomeOfBlock(b) != np.id {
				return fmt.Errorf("protocol: snapshot node %d has directory entry for foreign block %d", i, b)
			}
			if len(d.Sharers) > words || len(d.Writers) > words || len(d.Stale) > words {
				return fmt.Errorf("protocol: snapshot node %d directory entry for block %d sized for a larger cluster", i, b)
			}
			e := newDirEntry(nnodes)
			e.sharers.loadWords(d.Sharers)
			e.writers.loadWords(d.Writers)
			e.stale.loadWords(d.Stale)
			np.dir[b] = e
		}
		np.iwDone = make(map[[2]int]bool, len(ns.IWDone))
		for _, k := range ns.IWDone {
			np.iwDone[[2]int{int(k.A), int(k.B)}] = true
		}
		np.ccFrames = unpackFlags(ns.CCFrames, nb)
		np.ccTouched = unpackFlags(ns.CCTouched, nb)
		np.scHold = unpackFlags(ns.SCHold, nb)
		np.ccRecv.Reset()
		np.ccRecv.Add(ns.CCRecv)
		np.ccExpected = ns.CCExpected
		*np.n.St = ns.Stats
	}
	c.TimerStart = sim.Time(s.TimerStart)
	c.RestoreEpoch(s.Epoch, s.ReduceGen, s.Journal)
	return nil
}

func compareIWKey(x, y checkpoint.IWKey) int {
	if x.A != y.A {
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

// packFlags writes f as 0/1 bytes into dst's storage.
func packFlags(dst []byte, f blockFlags) []byte {
	dst = sized(dst, len(f))
	for i, v := range f {
		var x byte
		if v {
			x = 1
		}
		dst[i] = x
	}
	return dst
}

// sized returns s resliced to length n, reallocating only when its
// capacity is short. Callers overwrite every element.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func unpackFlags(b []byte, minLen int) blockFlags {
	n := len(b)
	if n < minLen {
		n = minLen
	}
	f := make(blockFlags, n)
	for i, v := range b {
		f[i] = v != 0
	}
	return f
}
