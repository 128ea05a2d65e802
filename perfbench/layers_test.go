package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	fr := func(fns ...string) []frame {
		var s []frame
		for _, f := range fns {
			s = append(s, frame{fn: f, file: "x.go"})
		}
		return s
	}
	cases := []struct {
		stack []frame
		want  string
	}{
		{fr("runtime.memclrNoHeapPointers", "hpfdsm/internal/memory.NewNodeMem", "hpfdsm/internal/tempest.(*Cluster).assemble",
			"hpfdsm/internal/tempest.NewCluster", "hpfdsm/internal/runtime.runAttempt"), "setup"},
		{fr("hpfdsm/internal/protocol.(*Proto).snapshotNode", "hpfdsm/internal/protocol.(*Proto).Capture",
			"hpfdsm/internal/runtime.runAttempt.func3"), "checkpoint"},
		{fr("hash/crc32.update", "hpfdsm/internal/checkpoint.Encode"), "checkpoint"},
		{fr("hpfdsm/internal/runtime.(*exec).active", "hpfdsm/internal/runtime.(*exec).runLoop"), "runtime.comm"},
		{fr("hpfdsm/internal/runtime.(*exec).preLoopComm.func1"), "runtime.comm"},
		{fr("hpfdsm/internal/runtime.(*exec).activeSet"), "runtime.loop"},
		{fr("runtime.mallocgc", "hpfdsm/internal/protocol.(*Proto).fault", "hpfdsm/internal/runtime.(*exec).runLoop"), "protocol"},
		{fr("hpfdsm/internal/sections.Intersect", "hpfdsm/internal/compiler.(*Schedule).Instantiate"), "compiler"},
		{fr("hpfdsm/internal/topo.Parent"), "network"},
		{[]frame{{fn: "hpfdsm/internal/sim.(*Shards).boundary", file: "/src/internal/sim/pdes.go"}}, "sim.pdes"},
		{[]frame{{fn: "hpfdsm/internal/sim.(*Env).Run", file: "/src/internal/sim/sim.go"}}, "sim"},
		{fr("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "go.gc"},
		{fr("runtime._GC"), "go.gc"},
		{fr("runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"), "go.sched"},
		{fr("compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"), "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestLayerTableCoversRepo(t *testing.T) {
	if err := checkLayerTable("../internal"); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range pkgLayer {
		if !known[l] {
			t.Errorf("package %s maps to unreported layer %s", pkg, l)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	return x
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.ns
		for _, f := range s.stack {
			if strings.HasSuffix(f.fn, ".spin") {
				inSpin += s.ns
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("spin has %d of %d sampled ns; want most of them", inSpin, total)
	}
}
