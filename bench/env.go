package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envStamp says where a result came from; without it a number cannot be
// compared with anything.
type envStamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	SeedUsed    bool    `json:"seed_used"` // false on interp-*: seed-independent by construction
	Commit      string  `json:"commit,omitempty"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model,omitempty"`
	RefNSPerOp  float64 `json:"host.ref_ns_per_op"`
	Quick       bool    `json:"quick,omitempty"`
	Trace       bool    `json:"trace"`
	RunSeconds  float64 `json:"seconds"`
	WallSeconds float64 `json:"wall_seconds"`
}

var processStart = time.Now()

func stampEnv(cfg config, r *run) envStamp {
	e := envStamp{
		Workload: cfg.workload, Seed: cfg.seed,
		SeedUsed:  cfg.workload == "fleet-cold" || cfg.workload == "service-durable",
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), RefNSPerOp: r.ref.run(refOps),
		Quick: cfg.quick, Trace: cfg.trace, RunSeconds: cfg.seconds,
		WallSeconds: time.Since(processStart).Seconds(),
	}
	// The driver's checkout is not a git repository; the stamp is then empty.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB is VmHWM of this process, falling back to getrusage's maxrss
// (the same high-water mark) where /proc is absent.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// hostUsage is a snapshot of what the process has consumed so far; two of
// them bracket a timed section.
type hostUsage struct {
	cpu, gcCPU float64 // seconds
	allocBytes uint64
}

func readHostUsage() hostUsage {
	var u hostUsage
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.allocBytes = s[1].Value.Uint64()
	}
	return u
}

// hostMetrics reports the host.* context of a timed section that did ops
// operations in wall seconds. The raw rates sit beside every _ref metric so
// a reader can tell a faster program from a faster host.
func (r *run) hostMetrics(before, after hostUsage, ops int, refNS []float64) {
	cpu := after.cpu - before.cpu
	r.set("host.cpu_s", cpu)
	r.set("host.alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(max(ops, 1)))
	share := 0.0
	if cpu > 0 {
		share = (after.gcCPU - before.gcCPU) / cpu
	}
	r.set("host.gc_cpu_share", share)
	r.setN("host.ref_ns_per_op", median(refNS), len(refNS))
}
