// Command perfbench is the repository's host-cost benchmark. It runs one
// workload of simulated programs for a fixed time and prints, as the
// last line of standard output, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1) declared in
// BENCHMARK.json.
//
// The load is a closed loop in one goroutine: each runtime.Run returns
// before the next starts. A pass runs every job of the workload once,
// in an order drawn from --seed. Every run's arrays are checked against
// the application's sequential reference, and every run's simulated
// time, message count and wire bytes must repeat exactly across passes.
// Host time is reported as wall_calib: wall time divided by that of a
// fixed calibration kernel run next to it, because a shared host's
// speed can drift by more than any bound a raw time could keep.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper8 --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	goruntime "runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/ir"
	"hpfdsm/internal/lang"
	"hpfdsm/internal/memory"
	"hpfdsm/internal/runtime"
	"hpfdsm/internal/sections"
)

// The set-up (parse + compiler.New of every program) is repeated for
// setupChunk before the warm pass and again after every measured pass;
// setup_s is the median repetition. One repetition takes well under a
// millisecond on some workloads, and the host's speed drifts over
// seconds, so the repetitions are many and spread over the whole run.
const setupChunk = 100 * time.Millisecond

// commit is the source revision, set at build time by run.sh.
var commit = "unknown"

func main() {
	workloadName := flag.String("workload", "", "workload name (paper8, miss64, tree256, recover8)")
	seed := flag.Int64("seed", 1, "workload seed: run order, and recover8's fault pattern and crash victim")
	seconds := flag.Int("seconds", 25, "measurement time budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	flag.Parse()
	if err := run(*workloadName, *seed, time.Duration(*seconds)*time.Second, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// prepared is a job with its parsed program and reference arrays.
type prepared struct {
	job
	prog *ir.Program
	ref  map[string][]float64
}

// sig is a run's simulated outcome, exact by construction.
type sig struct{ simNs, msgs, bytes int64 }

func sigOf(res *runtime.Result) sig {
	return sig{int64(res.Elapsed), res.Stats.TotalMessages(), res.Stats.TotalBytes()}
}

// passStats is one pass over the workload's jobs.
type passStats struct {
	wall           time.Duration   // summed runtime.Run time
	runs           []time.Duration // runtime.Run time per job index
	calib          []time.Duration // calibration kernel time around each run, by job index
	mallocs, bytes uint64
	gcs            uint32
	layerNs        map[string]int64 // CPU profile samples by layer (profiled passes)
}

type bench struct {
	w        workload
	kern     *calibKernel
	seed     int64
	rng      *rand.Rand
	preps    []*prepared
	want     []sig              // per job, from the warm pass
	counts   map[string]float64 // exact work counts of the warm pass
	attempts int
	failures []string

	setupS, parseMs, newMs []float64 // one entry per set-up repetition
}

// setUp parses and compiles every job's program repeatedly for
// setupChunk (at least once), timing each repetition. The first call
// keeps its first repetition's programs for the runs.
func (b *bench) setUp(jobs []job) error {
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < setupChunk; rep++ {
		var parse, comp time.Duration
		for i, j := range jobs {
			t0 := time.Now()
			prog, err := lang.ParseWithOverrides(j.app.Source, j.params)
			if err != nil {
				return fmt.Errorf("parse %s: %w", j.app.Name, err)
			}
			t1 := time.Now()
			mc := j.opts.Machine
			if _, err := compiler.New(prog, mc.Nodes, layoutsFor(prog, mc), mc.BlockSize); err != nil {
				return fmt.Errorf("compile %s: %w", j.app.Name, err)
			}
			parse += t1.Sub(t0)
			comp += time.Since(t1)
			if len(b.preps) < len(jobs) {
				b.preps = append(b.preps, &prepared{job: jobs[i], prog: prog})
			}
		}
		b.setupS = append(b.setupS, (parse + comp).Seconds())
		b.parseMs = append(b.parseMs, ms(parse))
		b.newMs = append(b.newMs, ms(comp))
	}
	return nil
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func run(name string, seed int64, budget time.Duration, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if err := checkLayerTable("internal"); err != nil {
		return err
	}
	declared, err := declaredMetrics("BENCHMARK.json", traced)
	if err != nil {
		return err
	}
	jobs, err := w.jobs(seed)
	if err != nil {
		return err
	}
	b := &bench{w: w, seed: seed, rng: rand.New(rand.NewSource(seed)), counts: map[string]float64{}, kern: newCalibKernel()}
	if err := b.setUp(jobs); err != nil {
		return err
	}
	for _, p := range b.preps {
		p.ref = p.app.Reference(p.params)
	}

	// Warm pass: fills the runtime's analysis and schedule caches and
	// records each job's exact simulated outcome.
	b.want = make([]sig, len(b.preps))
	b.pass(false, true)

	var timed, profiled []passStats
	start := time.Now()
	last := time.Duration(0)
	for i := 0; ; i++ {
		profile := traced && i%2 == 1
		if len(timed) > 0 && (!traced || len(profiled) > 0) && time.Since(start)+last > budget {
			break
		}
		t0 := time.Now()
		ps := b.pass(profile, false)
		if profile {
			profiled = append(profiled, ps)
		} else {
			timed = append(timed, ps)
		}
		if err := b.setUp(jobs); err != nil {
			return err
		}
		last = time.Since(t0)
	}

	metrics := map[string]metric{}
	if !traced {
		walls, allocs, mbs := column(timed, func(p passStats) float64 { return p.wall.Seconds() }),
			column(timed, func(p passStats) float64 { return float64(p.mallocs) / 1e6 }),
			column(timed, func(p passStats) float64 { return float64(p.bytes) / 1e6 })
		// A pass's time is assembled from each job's median run, which
		// keeps a slow stretch of the host from landing on every job,
		// and each run is measured in units of the calibration kernel
		// that brackets it (see calib.go), which takes out slow drift.
		rel := 0.0
		for i := range b.preps {
			rel += median(column(timed, func(p passStats) float64 { return p.runs[i].Seconds() / p.calib[i].Seconds() }))
		}
		metrics["wall_calib"] = metric{rel, "calib"}
		metrics["setup_s"] = metric{median(b.setupS), "s"}
		metrics["allocs_m"] = metric{median(allocs), "M"}
		metrics["alloc_mb"] = metric{median(mbs), "MB"}
		metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		var total sig
		for _, s := range b.want {
			total.simNs += s.simNs
			total.msgs += s.msgs
			total.bytes += s.bytes
		}
		metrics["sim_ms"] = metric{float64(total.simNs) / 1e6, "ms-simulated"}
		metrics["msgs"] = metric{float64(total.msgs), "count"}
		metrics["wire_bytes"] = metric{float64(total.bytes), "bytes"}
		b.report(timed, map[string][]float64{
			"pass_s": walls, "setup_s": b.setupS, "allocs_m": allocs, "alloc_mb": mbs,
		})
	} else {
		b.layerMetrics(metrics, timed, profiled)
		b.report(timed, map[string][]float64{})
	}
	for name, m := range metrics {
		if declared[name] != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared in BENCHMARK.json", name, m.Unit)
		}
	}
	if len(metrics) != len(declared) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(metrics), len(declared))
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.failures) == 0, b.attempts, len(b.failures), metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass runs every job once in a seeded order. A failed run (error,
// wrong arrays, or a simulated outcome that differs from the warm pass)
// is recorded and the pass goes on.
func (b *bench) pass(profile, warm bool) passStats {
	n := len(b.preps)
	ps := passStats{runs: make([]time.Duration, n), calib: make([]time.Duration, n), layerNs: map[string]int64{}}
	order := b.rng.Perm(n)
	// cal[k] is the calibration kernel's time just before the pass's
	// k-th run; cal[n] follows the last run. Each run is charged the mean
	// of the two that bracket it.
	cal := make([]time.Duration, n+1)
	for k, i := range order {
		p := b.preps[i]
		b.attempts++
		// Every run starts from a collected heap, so neither its time
		// nor the process's peak RSS depends on which job ran before;
		// the calibration runs on a collected heap too.
		goruntime.GC()
		cal[k] = b.kern.run()
		goruntime.GC()
		var m0, m1 goruntime.MemStats
		var prof bytes.Buffer
		goruntime.ReadMemStats(&m0)
		if profile {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				b.fail("%s: start cpu profile: %v", p.app.Name, err)
				profile = false
			}
		}
		t0 := time.Now()
		res, err := runtime.Run(p.prog, p.opts)
		d := time.Since(t0)
		if profile {
			pprof.StopCPUProfile()
		}
		goruntime.ReadMemStats(&m1)
		ps.wall += d
		ps.runs[i] = d
		ps.mallocs += m1.Mallocs - m0.Mallocs
		ps.bytes += m1.TotalAlloc - m0.TotalAlloc
		ps.gcs += m1.NumGC - m0.NumGC
		if profile {
			if err := attribute(prof.Bytes(), ps.layerNs); err != nil {
				b.fail("%s: %v", p.app.Name, err)
			}
		}
		if err != nil {
			b.fail("%s: %v", p.app.Name, err)
			continue
		}
		if err := check(p, res); err != nil {
			b.fail("%s: %v", p.app.Name, err)
			continue
		}
		s := sigOf(res)
		if warm {
			b.want[i] = s
			addCounts(b.counts, res)
		} else if s != b.want[i] {
			b.fail("%s: simulated outcome %+v differs from the warm pass's %+v", p.app.Name, s, b.want[i])
		}
	}
	goruntime.GC()
	cal[n] = b.kern.run()
	for k, i := range order {
		ps.calib[i] = (cal[k] + cal[k+1]) / 2
	}
	return ps
}

// check compares the run's arrays against the sequential reference:
// bit-exact, except for cg, whose dot products feed the array updates
// and are folded in a different association order than the reference's
// serial loop (compared under the app's documented tolerance). A run
// with crash injection must also have recovered once per crash.
func check(p *prepared, res *runtime.Result) error {
	for _, name := range p.app.CheckArrays {
		got, want := res.ArrayData(name), p.ref[name]
		if len(got) != len(want) {
			return fmt.Errorf("array %s: length %d, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if p.app.Name != "cg" {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("array %s[%d] = %v, reference %v (bit-exact expected)", name, i, got[i], want[i])
				}
				continue
			}
			if d := math.Abs(got[i]-want[i]) / math.Max(1, math.Abs(want[i])); !(d <= p.app.Tol) {
				return fmt.Errorf("array %s[%d] = %v, reference %v (rel err %g > tol %g)", name, i, got[i], want[i], d, p.app.Tol)
			}
		}
	}
	if n := int64(len(p.opts.Machine.Faults.Crashes)); res.Recoveries != n {
		return fmt.Errorf("%d recoveries for %d injected crash(es)", res.Recoveries, n)
	}
	return nil
}

// layoutsFor lays the program's arrays out the way runtime.Run does.
func layoutsFor(prog *ir.Program, mc config.Machine) map[*ir.Array]sections.Layout {
	sp := memory.NewSpace(mc)
	layouts := make(map[*ir.Array]sections.Layout, len(prog.Arrays))
	for _, arr := range prog.Arrays {
		layouts[arr] = sections.Layout{Base: sp.Alloc(arr.Name, arr.Elems()*8), Extents: arr.Extents, ElemSize: 8}
	}
	return layouts
}

// report prints the run's context and, for each timing, its median,
// quartiles and sample count on one JSON line ahead of the result.
func (b *bench) report(timed []passStats, timings map[string][]float64) {
	type dist struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		N      int     `json:"n"`
	}
	var order []string
	for i, p := range b.preps {
		order = append(order, p.app.Name)
		timings["run_ms."+p.app.Name] = column(timed, func(ps passStats) float64 { return ms(ps.runs[i]) })
		timings["calib_ms."+p.app.Name] = column(timed, func(ps passStats) float64 { return ms(ps.calib[i]) })
	}
	ds := map[string]dist{}
	for k, v := range timings {
		q1, q2, q3 := quartiles(v)
		ds[k] = dist{q2, q1, q3, len(v)}
	}
	info := map[string]any{
		"workload": b.w.name, "seed": b.seed, "nproc": goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0), "go": goruntime.Version(), "commit": commit,
		"jobs": order, "timings": ds, "failures": b.failures,
		"fail_frac": float64(len(b.failures)) / float64(max(b.attempts, 1)),
	}
	out, err := json.Marshal(map[string]any{"perfbench": info})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(out))
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares for this mode, so the program and the file cannot drift.
func declaredMetrics(path string, traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func column(ps []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile with
// the same (exclusive) method as Python's statistics.quantiles(n=4).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (s[j]-s[j-1])*float64(delta)/4
	}
	return q(1), q(2), q(3)
}
