package main

import (
	"fmt"

	"hpfdsm/internal/apps"
	"hpfdsm/internal/compiler"
	"hpfdsm/internal/config"
	"hpfdsm/internal/runtime"
)

// A job is one runtime.Run the workload repeats in every pass.
type job struct {
	app    *apps.App
	params map[string]int
	opts   runtime.Options
}

// A workload is a fixed list of jobs; a pass runs each once, in an
// order drawn from the seed.
type workload struct {
	name string
	jobs func(seed int64) ([]job, error)
}

// paperApps is the Table 2 suite plus the irregular benchmark, which
// keeps the interpreter and inspector path measured.
func paperApps() ([]*apps.App, error) {
	var out []*apps.App
	for _, n := range []string{"pde", "shallow", "grav", "lu", "cg", "jacobi", "irregular"} {
		a, err := apps.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// Each workload loads a different layer (see BENCHMARK.json for why
// each was chosen and which layer metric should move on it):
//
//	paper8   compiler-directed push traffic: the loop executor and memory
//	miss64   demand misses through the invalidation protocol (pull)
//	tree256  scale-out set-up and per-instance transfer bookkeeping
//	recover8 checkpoint capture, reliable delivery and crash recovery
var workloads = []workload{
	{name: "paper8", jobs: func(int64) ([]job, error) {
		as, err := paperApps()
		if err != nil {
			return nil, err
		}
		mc := config.Default().WithNodes(8).WithCPUMode(config.DualCPU)
		var js []job
		for _, a := range as {
			opts := runtime.Options{Machine: mc, Opt: compiler.OptRTElim}
			opts.InspectIndirect = a.Name == "irregular"
			js = append(js, job{a, a.BenchParams, opts})
		}
		return js, nil
	}},
	{name: "miss64", jobs: func(int64) ([]job, error) {
		as, err := paperApps()
		if err != nil {
			return nil, err
		}
		mc := config.Default().WithNodes(64)
		var js []job
		for _, a := range as {
			js = append(js, job{a, a.ScaledParams, runtime.Options{Machine: mc, Opt: compiler.OptNone}})
		}
		return js, nil
	}},
	{name: "tree256", jobs: func(int64) ([]job, error) {
		a, err := apps.ByName("jacobi")
		if err != nil {
			return nil, err
		}
		mc := config.Default().WithNodes(256).WithTopology(config.TreeTopo)
		return []job{{a, a.BenchParams, runtime.Options{Machine: mc, Opt: compiler.OptRTElim}}}, nil
	}},
	{name: "recover8", jobs: func(seed int64) ([]job, error) {
		// The seed picks the fault pattern and the crash victim; node 0
		// hosts the barrier master and cannot crash.
		f := config.Faults{
			Drop: 0.01, Dup: 0.01, Reorder: 0.01,
			Seed:    uint64(seed),
			Crashes: []config.CrashSpec{{Node: 1 + int(uint64(seed)%7), Epoch: 3}},
		}
		mc := config.Default().WithNodes(8).WithFaults(f)
		var js []job
		for _, a := range apps.All() {
			js = append(js, job{a, a.ScaledParams, runtime.Options{Machine: mc, Opt: compiler.OptRTElim}})
		}
		return js, nil
	}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
