// Command bench is the repository's benchmark: four workloads, reference-
// normalised end-to-end metrics, and a per-layer ladder from mem.Read to
// fleetd. BENCHMARK.json at the repository root is its contract and its
// only metric table: names, units, directions and bounds are read from
// there, never repeated here. See README.md in this directory.
//
//	go run ./bench                          every workload, both passes, in fresh processes
//	go run ./bench -workload W -trace 0|1   one pass of one workload; last stdout line is the result
//	go run ./bench -compare A.json B.json   verdict per (metric, workload)
//	go run ./bench -update-golden           regenerate golden.json (benchmark PRs only)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark contract: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// config is one pass of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	clients  int // W: GOMAXPROCS and the closed loop's client count
	outDir   string
}

// run accumulates one pass's metrics and its fail-closed operation count.
type run struct {
	cfg       config
	ref       *reference
	tr        *tracer    // nil on the untraced pass
	order     *rand.Rand // seeded: the order each round's sessions are submitted in
	metrics   map[string]float64
	samples   map[string]int // sample count behind a median or percentile
	attempted int
	failed    int
	failures  []string
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, ref: newReference(), order: rand.New(rand.NewSource(cfg.seed)),
		metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// setN records a statistic together with the number of samples behind it.
func (r *run) setN(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// zero marks the metrics of a layer this workload never enters.
func (r *run) zero(names ...string) {
	for _, n := range names {
		r.metrics[n] = 0
	}
}

// op counts n attempted operations.
func (r *run) op(n int) { r.attempted += n }

// fail counts one failed operation and keeps the reason for the log.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passHeader is what one pass prints before its result line.
type passHeader struct {
	Env     envStamp       `json:"env"`
	Samples map[string]int `json:"samples"`
}

// finish projects the run onto the metric list the contract names for this
// pass. A declared metric the pass did not produce, or an undeclared one it
// did, is an error: the table and the program must not drift apart.
func (r *run) finish(spec *benchSpec) (result, error) {
	want := spec.EndToEnd
	if r.cfg.trace {
		want = spec.PerLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return res, fmt.Errorf("metric %s is declared in the contract but was not measured on %s", m.Name, r.cfg.workload)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	for name := range r.metrics {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s was measured but the contract does not declare it for this pass", name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// execute runs one pass of one workload in this process.
func execute(spec *benchSpec, cfg config) (*run, result, error) {
	if !spec.hasWorkload(cfg.workload) {
		return nil, result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := checkClients(cfg.clients); err != nil {
		return nil, result{}, err
	}
	runtime.GOMAXPROCS(cfg.clients)
	if cfg.quick {
		cfg.seconds = 0 // the minimum rounds, no more
	}
	r := newRun(cfg)
	if cfg.trace {
		r.tr = newTracer()
	}
	var err error
	switch cfg.workload {
	case "interp-miss", "interp-hit":
		err = runInterp(r)
	case "fleet-cold":
		err = runFleetCold(r)
	case "service-durable":
		err = runService(r)
	default:
		err = fmt.Errorf("workload %q is declared but not implemented", cfg.workload)
	}
	if err != nil {
		return r, result{}, err
	}
	if cfg.trace {
		if err := r.tr.write(cfg.outDir, cfg.workload); err != nil {
			return r, result{}, fmt.Errorf("write trace: %w", err)
		}
	}
	res, err := r.finish(spec)
	return r, res, err
}

// defaultClients is W = min(nproc, 4).
func defaultClients() int { return min(runtime.NumCPU(), 4) }

// checkClients refuses more client goroutines than CPUs: oversubscribed
// clients time the host scheduler, not the system under test.
func checkClients(w int) error {
	if w < 1 {
		return fmt.Errorf("need at least one client goroutine, got %d", w)
	}
	if n := runtime.NumCPU(); w > n {
		return fmt.Errorf("refusing %d client goroutines on %d CPUs", w, n)
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run one pass of this workload (default: all, each in a fresh process)")
		seed     = flag.Int64("seed", 1, "workload seed: the order each round's sessions are submitted in (interp workloads ignore it)")
		seconds  = flag.Float64("seconds", 0, "measurement budget per pass (default: run_seconds of the contract)")
		trace    = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		quick    = flag.Bool("quick", false, "tiny work sizes, for the self-test; numbers are not comparable")
		clients  = flag.Int("clients", defaultClients(), "client goroutines and GOMAXPROCS (W)")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark contract")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for traces, state dirs and result files")
		compare  = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		golden   = flag.Bool("update-golden", false, "regenerate golden.json")
		runs     = flag.Int("runs", 1, "with no -workload: repeat the whole set this many times into one result file")
	)
	flag.Parse()
	spec, err := loadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(spec, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *golden:
		if err := updateGolden(*clients); err != nil {
			fatal(err)
		}
	case *workload != "":
		cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			quick: *quick, clients: *clients, outDir: *outDir}
		r, res, err := execute(spec, cfg)
		if err != nil {
			fatal(err)
		}
		printJSON(passHeader{Env: stampEnv(cfg, r), Samples: r.samples})
		for _, f := range r.failures {
			fmt.Println("failed:", f)
		}
		printJSON(res)
	default:
		if err := runAll(spec, *specPath, *outDir, *seed, *seconds, *clients, *quick, *runs); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
}

// resultFile is what `bench` with no -workload writes and -compare reads:
// per workload, per metric, one value per run.
type resultFile struct {
	Env       envStamp                        `json:"env"`
	Runs      int                             `json:"runs"`
	Attempted map[string]int                  `json:"attempted"`
	Failed    map[string]int                  `json:"failed"`
	Values    map[string]map[string][]float64 `json:"values"` // workload -> metric -> runs
}

// runAll re-executes this binary once per (workload, pass), so every
// workload measures in a fresh process, prints every metric by name with
// its unit, and writes the result file.
func runAll(spec *benchSpec, specPath, outDir string, seed int64, seconds float64, clients int, quick bool, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultFile{Runs: runs, Attempted: map[string]int{}, Failed: map[string]int{}, Values: map[string]map[string][]float64{}}
	for i := 0; i < runs; i++ {
		for _, w := range spec.Workloads {
			if out.Values[w.Name] == nil {
				out.Values[w.Name] = map[string][]float64{}
			}
			for _, trace := range []int{0, 1} {
				args := []string{"-workload", w.Name, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-clients", fmt.Sprint(clients), "-spec", specPath, "-out", outDir}
				if quick {
					args = append(args, "-quick")
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s -trace %d: %w\n%s", w.Name, trace, err, stdout)
				}
				lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					return fmt.Errorf("%s -trace %d: bad result line: %w", w.Name, trace, err)
				}
				var head passHeader
				if json.Unmarshal([]byte(lines[0]), &head) == nil && trace == 0 {
					out.Env = head.Env
				}
				for _, l := range lines[1 : len(lines)-1] {
					fmt.Printf("%s: %s\n", w.Name, l)
				}
				out.Attempted[w.Name] += res.Attempted
				out.Failed[w.Name] += res.Failed
				for name, m := range res.Metrics {
					out.Values[w.Name][name] = append(out.Values[w.Name][name], m.Value)
				}
			}
		}
	}
	printTable(spec, &out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d run(s)); traces are beside it\n", path, runs)
	for _, w := range spec.Workloads {
		if out.Failed[w.Name] > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", w.Name, out.Failed[w.Name], out.Attempted[w.Name])
		}
	}
	return nil
}

// printTable prints every metric by name, with its unit, one column per
// workload (the median over runs).
func printTable(spec *benchSpec, out *resultFile) {
	fmt.Printf("\n%-44s %-10s", "metric", "unit")
	for _, w := range spec.Workloads {
		fmt.Printf(" %16s", w.Name)
	}
	fmt.Println()
	row := func(m metricSpec) {
		fmt.Printf("%-44s %-10s", m.Name, m.Unit)
		for _, w := range spec.Workloads {
			fmt.Printf(" %16.6g", median(out.Values[w.Name][m.Name]))
		}
		fmt.Println()
	}
	for _, m := range spec.EndToEnd {
		row(m)
	}
	fmt.Printf("%-44s %-10s", "failed_share", "share")
	for _, w := range spec.Workloads {
		share := 0.0
		if a := out.Attempted[w.Name]; a > 0 {
			share = float64(out.Failed[w.Name]) / float64(a)
		}
		fmt.Printf(" %16.6g", share)
	}
	fmt.Println()
	for _, m := range spec.PerLayer {
		row(m)
	}
}
