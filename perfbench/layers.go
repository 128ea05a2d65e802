package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

const repoPrefix = "hpfdsm/internal/"

// pkgLayer names the layer each hpfdsm/internal package's CPU time is
// charged to. checkLayerTable fails the benchmark when a package is
// missing, so new code cannot hide in "other".
var pkgLayer = map[string]string{
	"lang":       "lang",
	"compiler":   "compiler",
	"sections":   "compiler",
	"distribute": "compiler",
	"ir":         "compiler",
	"analysis":   "analysis",
	"runtime":    "runtime.loop", // runtime.comm is split off by function
	"memory":     "memory",
	"protocol":   "protocol",
	"stats":      "protocol", // miss-latency and counter updates on the fault path
	"tempest":    "tempest",
	"network":    "network",
	"topo":       "network", // tree routing of network sends
	"config":     "network", // MsgTime, the per-message cost model
	"sim":        "sim",     // pdes.go is split off as sim.pdes
	"checkpoint": "checkpoint",
	// Packages outside runtime.Run's call graph: their share should stay 0.
	"apps":      "tools",
	"bench":     "tools",
	"profiling": "tools",
	"simlint":   "tools",
	"trace":     "tools",
}

// layers lists every layer in report order. go.gc and go.sched take
// samples with no repo frame; other is whatever is left.
var layers = []string{
	"lang", "compiler", "analysis", "setup", "checkpoint",
	"runtime.comm", "runtime.loop", "memory", "protocol", "tempest",
	"network", "sim", "sim.pdes", "tools", "go.gc", "go.sched", "other",
}

// commFuncs are the runtime functions that issue the compiler-directed
// communication around a loop instance (transfer filtering and the
// pre/post-loop protocol calls).
var commFuncs = []string{"(*exec).active", "(*exec).preLoopComm", "(*exec).postLoopComm"}

// frame is one (possibly inlined) function on a sampled stack.
type frame struct {
	fn   string // fully qualified function name
	file string
}

// splitRepo returns the internal package path (e.g. "runtime") and the
// rest of the name ("(*exec).active") for a repo function.
func splitRepo(fn string) (pkg, rest string, ok bool) {
	if !strings.HasPrefix(fn, repoPrefix) {
		return "", "", false
	}
	s := fn[len(repoPrefix):]
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return "", "", false
	}
	return s[:slash+1+dot], s[slash+1+dot+1:], true
}

func hasFuncPrefix(rest, fn string) bool {
	return rest == fn || strings.HasPrefix(rest, fn+".")
}

// classify charges one sample (frames innermost first) to a layer.
func classify(stack []frame) string {
	for _, f := range stack {
		pkg, rest, ok := splitRepo(f.fn)
		if !ok {
			continue
		}
		switch {
		case pkg == "tempest" && (hasFuncPrefix(rest, "NewCluster") || hasFuncPrefix(rest, "NewPartitionedCluster")),
			pkg == "protocol" && hasFuncPrefix(rest, "Attach"):
			return "setup"
		}
	}
	for _, f := range stack {
		pkg, rest, ok := splitRepo(f.fn)
		if !ok {
			continue
		}
		if pkg == "checkpoint" ||
			pkg == "protocol" && (hasFuncPrefix(rest, "(*Proto).Capture") || hasFuncPrefix(rest, "(*Proto).Restore")) {
			return "checkpoint"
		}
	}
	for _, f := range stack {
		pkg, rest, ok := splitRepo(f.fn)
		if !ok {
			continue
		}
		switch {
		case pkg == "runtime":
			for _, c := range commFuncs {
				if hasFuncPrefix(rest, c) {
					return "runtime.comm"
				}
			}
		case pkg == "sim" && filepath.Base(f.file) == "pdes.go":
			return "sim.pdes"
		}
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		return "other"
	}
	gc, goOnly := false, true
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f.fn, "runtime.gc"), strings.HasPrefix(f.fn, "runtime.bgsweep"),
			strings.HasPrefix(f.fn, "runtime.bgscavenge"), f.fn == "runtime._GC",
			strings.HasPrefix(f.fn, "runtime.markroot"), f.fn == "runtime.scanobject":
			gc = true
		case strings.HasPrefix(f.fn, "runtime."), strings.HasPrefix(f.fn, "internal/runtime/"):
		default:
			goOnly = false
		}
	}
	switch {
	case gc:
		return "go.gc"
	case goOnly && len(stack) > 0:
		return "go.sched"
	}
	return "other"
}

// checkLayerTable verifies that every Go package under internalDir
// (testdata excluded) has an entry in pkgLayer.
func checkLayerTable(internalDir string) error {
	seen := map[string]bool{}
	err := filepath.WalkDir(internalDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(internalDir, filepath.Dir(p))
		if err != nil {
			return err
		}
		seen[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		return fmt.Errorf("layer table self-check: %w", err)
	}
	if len(seen) == 0 {
		return fmt.Errorf("layer table self-check: no Go packages under %s", internalDir)
	}
	var missing []string
	for pkg := range seen {
		if _, ok := pkgLayer[pkg]; !ok {
			missing = append(missing, repoPrefix+pkg)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("layer table self-check: no layer for %s", strings.Join(missing, ", "))
	}
	return nil
}
