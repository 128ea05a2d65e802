// Package checkpoint defines the barrier-consistent recovery snapshot
// and its wire codec. A snapshot captures the protocol-visible state of
// the whole cluster at a provably quiescent synchronization epoch: with
// no messages in flight, no handlers queued, no deferred protocol work,
// and no open coalescer buffers, the union of per-node memory images,
// access tags, dirty masks, directory entries, and counters IS the
// machine — restoring it on a fresh cluster resumes the run as if the
// epoch had just completed.
//
// The codec is self-describing and paranoid: a fixed magic, an explicit
// version, and a trailing CRC32 guard the payload, and Decode never
// panics on corrupt input — every length is bounds-checked against the
// remaining bytes before allocation (the fuzz target leans on this).
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"hpfdsm/internal/stats"
)

// Magic opens every encoded snapshot.
const Magic = "HPFCKPT1"

// Version is the current codec version. Version 2 widened the
// directory sharer/writer/stale sets from one uint64 mask each to
// length-prefixed word vectors, lifting the 64-node cluster cap.
const Version = 2

// Snapshot is the cluster-wide recovery image for one epoch.
type Snapshot struct {
	Epoch      int64 // completed synchronization epochs at capture
	SimTime    int64 // simulated time of the capture instant (ns)
	TimerStart int64 // measured-region start (0 if timing not started)
	ReduceGen  int64 // completed reduction generations
	Journal    []float64
	Nodes      []NodeState
}

// NodeState is one node's protocol-visible state.
type NodeState struct {
	Tags   []byte   // memory access tag per block
	Dirty  []uint16 // dirty-word mask per block
	Mapped []byte   // 0/1 per page
	Blocks []BlockImage

	Dir    []DirEntry // home-side directory entries, ascending block
	IWDone []IWKey    // completed install-window keys, sorted

	CCFrames  []byte // compiler-directed transfer frames, 0/1 per block
	CCTouched []byte
	SCHold    []byte

	CCRecv     int64 // cumulative compiler-directed blocks received
	CCExpected int64 // cumulative blocks announced by ExpectBlocks

	Stats stats.Node
}

// BlockImage is one block's data worth persisting (home copy or a
// cached copy with a live tag or dirty words).
type BlockImage struct {
	Block int32
	Data  []byte
}

// DirEntry is one home-side directory entry. The three node sets are
// multi-word bitmaps (ceil(Nodes/64) words) so clusters past 64 nodes
// checkpoint exactly like small ones.
type DirEntry struct {
	Block   int32
	Sharers []uint64
	Writers []uint64
	Stale   []uint64
}

// IWKey is one completed install-window key (block, writer).
type IWKey struct {
	A, B int32
}

// statsSize is the fixed encoded size of stats.Node (flat integers).
var statsSize = binary.Size(stats.Node{})

// Size returns the exact length of the encoded snapshot, so an encoder
// can size its buffer once instead of regrowing it.
func Size(s *Snapshot) int {
	n := len(Magic) + 4 + 4*8 + 4 + 8*len(s.Journal) + 4
	for i := range s.Nodes {
		n += nodeSize(&s.Nodes[i])
	}
	return n + 4 // CRC32
}

func nodeSize(n *NodeState) int {
	sz := 4 + len(n.Tags) + 4 + 2*len(n.Dirty) + 4 + len(n.Mapped)
	sz += 4
	for _, b := range n.Blocks {
		sz += 4 + 4 + len(b.Data)
	}
	sz += 4
	for _, d := range n.Dir {
		sz += 4 + 3*4 + 8*(len(d.Sharers)+len(d.Writers)+len(d.Stale))
	}
	sz += 4 + 8*len(n.IWDone)
	sz += 4 + len(n.CCFrames) + 4 + len(n.CCTouched) + 4 + len(n.SCHold)
	sz += 8 + 8
	return sz + 4 + statsSize
}

// Encode serializes the snapshot into dst's storage: magic, version,
// payload, CRC32 (IEEE) of everything preceding the checksum. Every
// byte is written once, into storage sized up front: dst is reused
// when it can hold Size(s) bytes (the returned blob then aliases it),
// so a caller that keeps its buffers encodes allocation-free in steady
// state. A nil dst always gets a fresh buffer.
//
//simlint:hotpath
func Encode(dst []byte, s *Snapshot) []byte {
	size := Size(s)
	if cap(dst) < size {
		// An eighth of headroom: a run's snapshots creep up by a few
		// bytes per epoch (one more directory entry or install-window
		// key), and each creep must not cost a fresh multi-MB buffer.
		dst = make([]byte, 0, size+size/8)
	}
	w := writer{buf: dst[:0]}
	w.raw([]byte(Magic))
	w.u32(Version)
	w.i64(s.Epoch)
	w.i64(s.SimTime)
	w.i64(s.TimerStart)
	w.i64(s.ReduceGen)
	w.u32(uint32(len(s.Journal)))
	for _, v := range s.Journal {
		w.u64(math.Float64bits(v))
	}
	w.u32(uint32(len(s.Nodes)))
	for i := range s.Nodes {
		encodeNode(&w, &s.Nodes[i])
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

//simlint:hotpath
func encodeNode(w *writer, n *NodeState) {
	w.blob(n.Tags)
	w.u32(uint32(len(n.Dirty)))
	for _, m := range n.Dirty {
		w.u16(m)
	}
	w.blob(n.Mapped)
	w.u32(uint32(len(n.Blocks)))
	for _, b := range n.Blocks {
		w.u32(uint32(b.Block))
		w.blob(b.Data)
	}
	w.u32(uint32(len(n.Dir)))
	for _, d := range n.Dir {
		w.u32(uint32(d.Block))
		w.words(d.Sharers)
		w.words(d.Writers)
		w.words(d.Stale)
	}
	w.u32(uint32(len(n.IWDone)))
	for _, k := range n.IWDone {
		w.u32(uint32(k.A))
		w.u32(uint32(k.B))
	}
	w.blob(n.CCFrames)
	w.blob(n.CCTouched)
	w.blob(n.SCHold)
	w.i64(n.CCRecv)
	w.i64(n.CCExpected)
	w.u32(uint32(statsSize))
	var err error
	if w.buf, err = binary.Append(w.buf, binary.LittleEndian, &n.Stats); err != nil {
		panic(fmt.Sprintf("checkpoint: stats encode: %v", err))
	}
}

// Decode parses and validates an encoded snapshot. It never panics on
// malformed input: framing, version, checksum, and every interior
// length are verified before use.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4+4 {
		return nil, errors.New("checkpoint: truncated header")
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, errors.New("checkpoint: bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, errors.New("checkpoint: checksum mismatch")
	}
	r := &reader{data: body, off: len(Magic)}
	if v := r.u32(); r.err == nil && v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	s := &Snapshot{
		Epoch:      r.i64(),
		SimTime:    r.i64(),
		TimerStart: r.i64(),
		ReduceGen:  r.i64(),
	}
	nj := r.count(8)
	for i := 0; i < nj && r.err == nil; i++ {
		s.Journal = append(s.Journal, math.Float64frombits(r.u64()))
	}
	nn := r.count(1)
	for i := 0; i < nn && r.err == nil; i++ {
		n, err := decodeNode(r)
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, n)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("checkpoint: %d trailing bytes", len(body)-r.off)
	}
	return s, nil
}

func decodeNode(r *reader) (NodeState, error) {
	var n NodeState
	n.Tags = r.blob()
	nd := r.count(2)
	for i := 0; i < nd && r.err == nil; i++ {
		n.Dirty = append(n.Dirty, r.u16())
	}
	n.Mapped = r.blob()
	nb := r.count(8)
	for i := 0; i < nb && r.err == nil; i++ {
		n.Blocks = append(n.Blocks, BlockImage{Block: int32(r.u32()), Data: r.blob()})
	}
	ne := r.count(16) // block + three (possibly empty) word vectors
	for i := 0; i < ne && r.err == nil; i++ {
		n.Dir = append(n.Dir, DirEntry{
			Block: int32(r.u32()), Sharers: r.words(), Writers: r.words(), Stale: r.words(),
		})
	}
	nk := r.count(8)
	for i := 0; i < nk && r.err == nil; i++ {
		n.IWDone = append(n.IWDone, IWKey{A: int32(r.u32()), B: int32(r.u32())})
	}
	n.CCFrames = r.blob()
	n.CCTouched = r.blob()
	n.SCHold = r.blob()
	n.CCRecv = r.i64()
	n.CCExpected = r.i64()
	sb := r.blob()
	if r.err != nil {
		return n, r.err
	}
	if len(sb) != statsSize {
		return n, fmt.Errorf("checkpoint: stats record is %d bytes, want %d", len(sb), statsSize)
	}
	if err := binary.Read(bytes.NewReader(sb), binary.LittleEndian, &n.Stats); err != nil {
		return n, fmt.Errorf("checkpoint: stats decode: %v", err)
	}
	return n, nil
}

// --- primitive codec --------------------------------------------------

type writer struct{ buf []byte }

// raw appends b. Every append below lands in a buffer Encode
// presized to hold the whole encoding, so none of them grows it.
//
//simlint:hotpath
func (w *writer) raw(b []byte) {
	//simlint:ignore hotalloc -- the buffer is presized to Size(s); the append never grows it
	w.buf = append(w.buf, b...)
}

func (w *writer) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }

// blob writes a length-prefixed byte slice.
func (w *writer) blob(b []byte) {
	w.u32(uint32(len(b)))
	w.raw(b)
}

// words writes a length-prefixed uint64 vector (a node-set bitmap).
func (w *writer) words(v []uint64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}

type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || r.off+n > len(r.data) {
		r.err = errors.New("checkpoint: truncated payload")
		return false
	}
	return true
}

func (r *reader) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v
}

func (r *reader) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// count reads an element count and rejects values whose minimum encoded
// size (elemSize bytes each) cannot fit in the remaining payload — a
// corrupted length cannot force a huge allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.data)-r.off {
		r.err = fmt.Errorf("checkpoint: implausible count %d", n)
		return 0
	}
	return n
}

// words reads a length-prefixed uint64 vector.
func (r *reader) words() []uint64 {
	n := r.count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = r.u64()
	}
	return v
}

// blob reads a length-prefixed byte slice (copied out of the input).
func (r *reader) blob() []byte {
	n := r.count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	b := make([]byte, n)
	copy(b, r.data[r.off:])
	r.off += n
	return b
}
