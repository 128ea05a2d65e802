package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"hpfdsm/internal/stats"
)

// sample builds a snapshot exercising every field, including empty and
// nil slices (which must round-trip as empty).
func sample() *Snapshot {
	st := stats.Node{ReadMisses: 7, MsgsSent: 99, BarrierTime: 1234}
	st.MissLatency[3] = 17
	return &Snapshot{
		Epoch:      42,
		SimTime:    1_000_000,
		TimerStart: 250_000,
		ReduceGen:  3,
		Journal:    []float64{1.5, -2.25, 0},
		Nodes: []NodeState{
			{
				Tags:       []byte{0, 1, 2, 1},
				Dirty:      []uint16{0, 0xffff, 0x8001, 0},
				Mapped:     []byte{1, 0},
				Blocks:     []BlockImage{{Block: 1, Data: []byte{9, 8, 7, 6}}},
				Dir:        []DirEntry{{Block: 0, Sharers: []uint64{0b1010}, Writers: []uint64{0b0100, 1}, Stale: []uint64{0b0001}}},
				IWDone:     []IWKey{{A: 3, B: 5}},
				CCFrames:   []byte{0, 1, 0, 0},
				CCTouched:  []byte{0, 0, 1, 0},
				SCHold:     []byte{1, 0, 0, 0},
				CCRecv:     12,
				CCExpected: 12,
				Stats:      st,
			},
			{
				Tags:   []byte{1, 1, 0, 0},
				Dirty:  []uint16{0, 0, 0, 0},
				Mapped: []byte{1, 1},
			},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	want := sample()
	blob := Encode(nil, want)
	if n := Size(want); n != len(blob) {
		t.Fatalf("Size = %d, encoded %d bytes", n, len(blob))
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// normalize maps nil slices to empty ones: the codec cannot distinguish
// them and the consumers never do either.
func normalize(s *Snapshot) *Snapshot {
	c := *s
	if c.Journal == nil {
		c.Journal = []float64{}
	}
	c.Nodes = append([]NodeState(nil), s.Nodes...)
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Tags == nil {
			n.Tags = []byte{}
		}
		if n.Dirty == nil {
			n.Dirty = []uint16{}
		}
		if n.Mapped == nil {
			n.Mapped = []byte{}
		}
		if n.Blocks == nil {
			n.Blocks = []BlockImage{}
		}
		if n.Dir == nil {
			n.Dir = []DirEntry{}
		}
		if n.IWDone == nil {
			n.IWDone = []IWKey{}
		}
		if n.CCFrames == nil {
			n.CCFrames = []byte{}
		}
		if n.CCTouched == nil {
			n.CCTouched = []byte{}
		}
		if n.SCHold == nil {
			n.SCHold = []byte{}
		}
	}
	return &c
}

func TestCodecRejectsCorruption(t *testing.T) {
	blob := Encode(nil, sample())
	// Flip every byte in turn: either the CRC, the magic, the version,
	// or the structural validation must reject it. Nothing may panic.
	for i := range blob {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("byte %d corrupted yet Decode succeeded", i)
		}
	}
	// Truncations at every length must fail cleanly too.
	for n := 0; n < len(blob); n++ {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Trailing garbage is not a checkpoint either (CRC covers only the
	// framed payload, so this guards the exact-length check).
	if _, err := Decode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCodecDeterministic(t *testing.T) {
	a, b := Encode(nil, sample()), Encode(nil, sample())
	if !bytes.Equal(a, b) {
		t.Fatal("Encode is not deterministic for identical snapshots")
	}
	// The wire bytes themselves are pinned: a rewrite of the encoder
	// must not change the format without bumping Version.
	const want = "ce275e97b553f2fbdf845fd6782008e6a628cb13a675e3c371db3c45726e53f5"
	if got := fmt.Sprintf("%x", sha256.Sum256(a)); got != want {
		t.Fatalf("encoded sample hashes to %s, want %s", got, want)
	}
}

// FuzzCheckpointCodec feeds Decode arbitrary bytes (it must reject or
// parse, never panic) and round-trips whatever parses: a blob Decode
// accepts must re-encode to the identical blob, or the recovery path
// could silently restore a different machine than was captured.
func FuzzCheckpointCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("HPFCKPT1"))
	f.Add(Encode(nil, sample()))
	f.Add(Encode(nil, &Snapshot{}))
	f.Add(Encode(nil, &Snapshot{Epoch: 1, Nodes: make([]NodeState, 3)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if n := Size(s); n != len(data) {
			t.Fatalf("Size = %d for an accepted %d-byte blob", n, len(data))
		}
		re := Encode(nil, s)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted blob is not canonical: re-encode differs (%d vs %d bytes)", len(re), len(data))
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded blob rejected: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatal("decode/encode/decode not a fixed point")
		}
	})
}
