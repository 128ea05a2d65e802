package main

import (
	"time"

	"hpfdsm/internal/config"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/protocol"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sim"
	"hpfdsm/internal/stats"
	"hpfdsm/internal/tempest"
)

// addCounts adds one run's exact work counts and simulated-time split.
func addCounts(c map[string]float64, res *runtime.Result) {
	st := res.Stats
	var n stats.Node
	for i := range st.Nodes {
		x := &st.Nodes[i]
		n.ReadMisses += x.ReadMisses
		n.WriteMisses += x.WriteMisses
		n.UpgradeMisses += x.UpgradeMisses
		n.ProtoCalls += x.ProtoCalls
		n.SegsCoalesced += x.SegsCoalesced
		n.CarriersSent += x.CarriersSent
		n.Retransmits += x.Retransmits
		n.DupsDropped += x.DupsDropped
		n.AcksSent += x.AcksSent
		n.ProbesSent += x.ProbesSent
		n.ComputeTime += x.ComputeTime
		n.CommTime += x.CommTime
		n.BarrierTime += x.BarrierTime
		n.StolenTime += x.StolenTime
	}
	c["protocol.read_misses"] += float64(n.ReadMisses)
	c["protocol.write_misses"] += float64(n.WriteMisses)
	c["protocol.upgrade_misses"] += float64(n.UpgradeMisses)
	c["protocol.calls"] += float64(n.ProtoCalls)
	c["network.segs_coalesced"] += float64(n.SegsCoalesced)
	c["network.carriers"] += float64(n.CarriersSent)
	c["network.retransmits"] += float64(n.Retransmits)
	c["network.dups_dropped"] += float64(n.DupsDropped)
	c["network.acks"] += float64(n.AcksSent)
	c["network.probes"] += float64(n.ProbesSent)
	c["msgs"] += float64(st.TotalMessages())
	c["checkpoint.count"] += float64(res.CheckpointsTaken)
	c["checkpoint.bytes"] += float64(res.CheckpointBytes)
	c["checkpoint.recoveries"] += float64(res.Recoveries)
	// Node averages, so runs at different N add on the same scale.
	nodes := float64(len(st.Nodes))
	c["simtime.compute_ms"] += simMs(n.ComputeTime) / nodes
	c["simtime.comm_ms"] += simMs(n.CommTime) / nodes
	c["simtime.barrier_ms"] += simMs(n.BarrierTime) / nodes
	c["simtime.stolen_ms"] += simMs(n.StolenTime) / nodes
	c["simtime.recovery_ms"] += simMs(res.RecoveryTime)
}

func simMs(t sim.Time) float64 { return float64(t) / 1e6 }

// attribute charges a CPU profile's samples to layers.
func attribute(gz []byte, into map[string]int64) error {
	samples, err := parseCPUProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range samples {
		into[classify(s.stack)] += s.ns
	}
	return nil
}

// layerMetrics fills the per-layer metrics of a traced run: CPU per
// layer from the profiled passes, timed public calls, exact work counts
// from the warm pass, and the PDES probe.
func (b *bench) layerMetrics(m map[string]metric, timed, profiled []passStats) {
	npro := float64(len(profiled))
	layerNs := map[string]int64{}
	var total int64
	for _, p := range profiled {
		for l, ns := range p.layerNs {
			layerNs[l] += ns
			total += ns
		}
	}
	cpuS := func(l string) float64 { return float64(layerNs[l]) / 1e9 / npro }
	if total == 0 || float64(layerNs["other"]) > 0.05*float64(total) {
		b.fail("layer attribution: %d of %d sampled CPU ns fall outside every named layer (more than 5%%)", layerNs["other"], total)
	}
	for _, l := range layers {
		frac := 0.0
		if total > 0 {
			frac = float64(layerNs[l]) / float64(total)
		}
		m[l+".cpu_s"] = metric{cpuS(l), "s"}
		m[l+".cpu_frac"] = metric{frac, "fraction"}
	}

	var runMs []float64
	for _, p := range timed {
		for _, d := range p.runs {
			runMs = append(runMs, ms(d))
		}
	}
	maxRun := 0.0
	for _, v := range runMs {
		maxRun = max(maxRun, v)
	}
	m["lang.parse_ms"] = metric{median(b.parseMs), "ms"}
	m["compiler.new_ms"] = metric{median(b.newMs), "ms"}
	m["setup.cluster_ms"] = metric{b.clusterSetupMs(), "ms"}
	m["runtime.run_ms_p50"] = metric{median(runMs), "ms"}
	m["runtime.run_ms_max"] = metric{maxRun, "ms"}
	m["go.gc.cycles"] = metric{median(column(timed, func(p passStats) float64 { return float64(p.gcs) })), "count"}
	m["trace.overhead_frac"] = metric{
		median(column(profiled, func(p passStats) float64 { return p.wall.Seconds() })) /
			median(column(timed, func(p passStats) float64 { return p.wall.Seconds() })), "ratio"}

	c := b.counts
	for _, k := range []string{
		"protocol.read_misses", "protocol.write_misses", "protocol.upgrade_misses", "protocol.calls",
		"network.segs_coalesced", "network.carriers", "network.retransmits", "network.dups_dropped",
		"network.acks", "network.probes", "checkpoint.count", "checkpoint.recoveries",
	} {
		m[k] = metric{c[k], "count"}
	}
	for _, k := range []string{"simtime.compute_ms", "simtime.comm_ms", "simtime.barrier_ms", "simtime.stolen_ms", "simtime.recovery_ms"} {
		m[k] = metric{c[k], "ms-simulated"}
	}
	m["network.segs_per_carrier"] = metric{ratio(c["network.segs_coalesced"], c["network.carriers"]), "ratio"}
	m["checkpoint.mb"] = metric{c["checkpoint.bytes"] / 1e6, "MB"}
	misses := c["protocol.read_misses"] + c["protocol.write_misses"] + c["protocol.upgrade_misses"]
	m["protocol.cpu_ns_per_miss"] = metric{ratio(cpuS("protocol")*1e9, misses), "ns"}
	m["sim.cpu_ns_per_msg"] = metric{ratio(cpuS("sim")*1e9, c["msgs"]), "ns"}
	m["network.cpu_ns_per_msg"] = metric{ratio(cpuS("network")*1e9, c["msgs"]), "ns"}
	m["checkpoint.cpu_ns_per_byte"] = metric{ratio(cpuS("checkpoint")*1e9, c["checkpoint.bytes"]), "ns"}

	windows, handoffs, wallRatio := b.pdesProbe()
	m["sim.pdes.windows"] = metric{windows, "count"}
	m["sim.pdes.handoffs"] = metric{handoffs, "count"}
	m["sim.pdes.wall_ratio_p2"] = metric{wallRatio, "ratio"}
}

// clusterSetupMs times tempest.NewCluster plus protocol.Attach for every
// job, the per-run cluster construction runtime.Run pays.
func (b *bench) clusterSetupMs() float64 {
	var reps []float64
	for rep := 0; rep < 3; rep++ {
		var d time.Duration
		for _, p := range b.preps {
			sp := memory.NewSpace(p.opts.Machine)
			for _, arr := range p.prog.Arrays {
				sp.Alloc(arr.Name, arr.Elems()*8)
			}
			t0 := time.Now()
			protocol.Attach(tempest.NewCluster(sim.NewEnv(), sp))
			d += time.Since(t0)
		}
		reps = append(reps, ms(d))
	}
	return median(reps)
}

// pdesProbe runs every job once sequentially and once under PDES with
// two partitions, with fault injection and crashes removed (PDES
// rejects them), and checks the two agree exactly. It returns the
// PDES engine census and the wall-time ratio PDES/sequential.
func (b *bench) pdesProbe() (windows, handoffs, wallRatio float64) {
	var seqWall, parWall time.Duration
	for _, p := range b.preps {
		opts := p.opts
		opts.Machine.Faults = config.Faults{}
		var sigs [2]sig
		for k, parts := range []int{1, 2} {
			opts.Partitions = parts
			b.attempts++
			t0 := time.Now()
			res, err := runtime.Run(p.prog, opts)
			d := time.Since(t0)
			if err != nil {
				b.fail("%s pdes=%d: %v", p.app.Name, parts, err)
				return
			}
			if parts == 1 {
				seqWall += d
			} else {
				parWall += d
				windows += float64(res.PDESWindows)
				handoffs += float64(res.PDESHandoffs)
			}
			sigs[k] = sigOf(res)
			pf := *p
			pf.opts = opts
			if err := check(&pf, res); err != nil {
				b.fail("%s pdes=%d: %v", p.app.Name, parts, err)
			}
		}
		if sigs[0] != sigs[1] {
			b.fail("%s: pdes=2 outcome %+v differs from sequential %+v", p.app.Name, sigs[1], sigs[0])
		}
	}
	return windows, handoffs, ratio(parWall.Seconds(), seqWall.Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
