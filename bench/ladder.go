package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rpg2/internal/baselines"
	"rpg2/internal/bolt"
	"rpg2/internal/cache"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/mem"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	"rpg2/internal/stats"
	"rpg2/internal/store"
	"rpg2/internal/store/remote"
	"rpg2/internal/stored"
	"rpg2/internal/wal"
	"rpg2/internal/workloads"
)

// The ladder: one probe per layer, from mem.Read up to the WAL, each timing
// calls into the layer's exported functions from outside. It does not
// depend on the workload; every traced pass runs it, so every per-layer
// number sits beside the workload it is meant to explain.

// ladderSink keeps probe results live.
var ladderSink uint64

// batchCount is how many equal batches back each ladder median.
func (r *run) batchCount() int {
	if r.cfg.quick {
		return 3
	}
	return 12
}

// scale shrinks a batch size for the quick self-test.
func (r *run) scale(n int) int {
	if r.cfg.quick {
		return max(n/20, 1)
	}
	return n
}

// perCall times fn, which makes calls calls, batchCount times, records each
// batch as a span, and returns the median host nanoseconds per call.
func (r *run) perCall(name string, calls int, fn func()) float64 {
	ns := make([]float64, 0, r.batchCount())
	for b := 0; b < r.batchCount(); b++ {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		r.tr.add(name, 0, -1, t0, t1)
		ns = append(ns, float64(t1.Sub(t0).Nanoseconds())/float64(calls))
	}
	r.samples[name] = len(ns)
	return median(ns)
}

func (r *run) ladder() error {
	m := machine.CascadeLake()
	root := r.tr.open("ladder", 0, -1)
	defer r.tr.close(root)

	warm := 5.0
	if r.cfg.quick {
		warm = 0.5
	}
	var ks []*kernelProc
	for _, id := range allKernels() {
		k, err := launchKernel(m, workloads.SharedCache(), id, warm)
		if err != nil {
			return err
		}
		ks = append(ks, k)
	}
	is := ks[0]

	if err := r.ladderMem(m); err != nil {
		return err
	}
	r.ladderCache(m, is)
	if err := r.ladderCPU(m, ks); err != nil {
		return err
	}
	if err := r.ladderProc(m, ks); err != nil {
		return err
	}
	r.ladderPerf(m, is)
	if err := r.ladderBolt(m); err != nil {
		return err
	}
	if err := r.ladderBuilds(); err != nil {
		return err
	}
	if err := r.ladderStore(); err != nil {
		return err
	}
	return r.ladderWAL()
}

// ladderMem times AddrSpace.Read within one segment, alternating between
// the index and data segments (the pattern that defeats the one-entry
// last-segment cache), and AddrSpace.Write, on a launched is process.
func (r *run) ladderMem(m machine.Machine) error {
	k, err := launchKernel(m, workloads.SharedCache(), kernelID{"is", ""}, 0.1)
	if err != nil {
		return err
	}
	as := k.p.AS
	keys, cnt := as.Segment("keys"), as.Segment("cnt")
	if keys == nil || cnt == nil {
		return fmt.Errorf("is has no keys/cnt segments")
	}
	const ring = 4096
	rng := rand.New(rand.NewSource(7))
	same, alt, dst := make([]mem.Addr, ring), make([]mem.Addr, ring), make([]mem.Addr, ring)
	for i := range same {
		same[i] = keys.Base + uint64(rng.Intn(len(keys.Data)))
		dst[i] = cnt.Base + uint64(rng.Intn(len(cnt.Data)))
		alt[i] = same[i]
		if i%2 == 1 {
			alt[i] = dst[i]
		}
	}
	calls := r.scale(1 << 20)
	read := func(addrs []mem.Addr) func() {
		return func() {
			var acc uint64
			for i := 0; i < calls; i++ {
				v, _ := as.Read(addrs[i%ring])
				acc += v
			}
			ladderSink += acc
		}
	}
	r.set("mem.read_same_ns", r.perCall("mem.read_same_ns", calls, read(same)))
	r.set("mem.read_alt_ns", r.perCall("mem.read_alt_ns", calls, read(alt)))
	r.set("mem.write_ns", r.perCall("mem.write_ns", calls, func() {
		for i := 0; i < calls; i++ {
			as.Write(dst[i%ring], uint64(i))
		}
	}))
	return nil
}

// ladderCache times Hierarchy.Access on three streams — a resident line, a
// footprint between L2 and L3, and a replay of the LLC-missing addresses is
// really produces — and Hierarchy.Prefetch on that same replay.
func (r *run) ladderCache(m machine.Machine, is *kernelProc) {
	type miss struct {
		pc   uint64
		addr mem.Addr
	}
	replay := make([]miss, 0, 1<<15)
	core := is.p.MainThread().Core
	core.OnLLCMiss = func(pc int, addr mem.Addr) {
		if len(replay) < cap(replay) {
			replay = append(replay, miss{uint64(pc), addr})
		}
	}
	for len(replay) < cap(replay) && is.p.State() == proc.Running {
		is.p.Run(m.Seconds(0.5))
	}
	core.OnLLCMiss = nil

	calls := r.scale(100_000)
	h := m.NewHierarchy()
	now := uint64(0)
	r.set("cache.access_l1hit_ns", r.perCall("cache.access_l1hit_ns", calls, func() {
		for i := 0; i < calls; i++ {
			now += 2
			h.Access(1, 4096, now)
		}
	}))

	// 2048 lines: four times L2, half of L3, visited in a fixed shuffled
	// order so the stride prefetcher never gains confidence.
	lines := rand.New(rand.NewSource(11)).Perm(2048)
	h = m.NewHierarchy()
	for _, l := range lines {
		now += 250
		h.Access(2, mem.Addr(1<<20+8*l), now)
	}
	r.set("cache.access_l3hit_ns", r.perCall("cache.access_l3hit_ns", calls, func() {
		for i := 0; i < calls; i++ {
			now += 40
			h.Access(2, mem.Addr(1<<20+8*lines[i%len(lines)]), now)
		}
	}))

	h = m.NewHierarchy()
	r.set("cache.access_llcmiss_ns", r.perCall("cache.access_llcmiss_ns", calls, func() {
		for i := 0; i < calls; i++ {
			now += 60
			ms := replay[i%len(replay)]
			h.Access(ms.pc, ms.addr, now)
		}
	}))

	h = m.NewHierarchy()
	r.set("cache.prefetch_ns", r.perCall("cache.prefetch_ns", calls, func() {
		for i := 0; i < calls; i++ {
			now += 20
			h.Prefetch(replay[i%len(replay)].addr, now, cache.SoftwarePrefetch)
		}
	}))
}

// stepBatch drives Core.Step from the harness, as Process.Run does for a
// single-threaded target, and returns how many instructions retired.
func stepBatch(p *proc.Process, steps int) (int, error) {
	t := p.MainThread()
	for i := 0; i < steps; i++ {
		if err := t.Core.Step(&t.Thread, p.Text, p.AS); err != nil {
			return i, err
		}
	}
	return steps, nil
}

// aluLoop is a target that never touches memory: the cost of Step's
// dispatch alone.
func aluLoop(m machine.Machine) (*proc.Process, error) {
	a := isa.NewAsm("main")
	a.MovImm(8, 1)
	a.Label("loop")
	a.AddImm(8, 8, 3)
	a.Add(9, 9, 8)
	a.MulImm(10, 9, 5)
	a.ShrImm(11, 10, 2)
	a.AndImm(12, 11, 0xffff)
	a.Jmp("loop")
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		return nil, err
	}
	return m.Launch(bin, nil)
}

func (r *run) ladderCPU(m machine.Machine, ks []*kernelProc) error {
	steps := r.scale(100_000)
	var stepErr error
	time1 := func(name string, p *proc.Process) float64 {
		return r.perCall(name, steps, func() {
			if _, err := stepBatch(p, steps); err != nil && stepErr == nil {
				stepErr = fmt.Errorf("%s: %w", name, err)
			}
		})
	}
	for _, k := range ks {
		name := "cpu.step_ns." + k.id.slug()
		r.set(name, time1(name, k.p))
	}
	// The controller's view of a target: four watches of four PCs each,
	// scanned per retired instruction.
	is := ks[0]
	f, _ := is.p.Func(workloads.KernelFunc)
	var watches []*cpu.Watch
	for w := 0; w < 4; w++ {
		pcs := make([]int, 4)
		for i := range pcs {
			pcs[i] = f.Entry + (4*w+i)%f.Size
		}
		watches = append(watches, perf.AttachWatch(is.p, pcs))
	}
	r.set("cpu.step_watched_ns", time1("cpu.step_watched_ns", is.p))
	for _, w := range watches {
		perf.DetachWatch(is.p, w)
	}
	alu, err := aluLoop(m)
	if err != nil {
		return err
	}
	r.set("cpu.step_alu_ns", time1("cpu.step_alu_ns", alu))
	return stepErr
}

func (r *run) ladderProc(m machine.Machine, ks []*kernelProc) error {
	slice := 0.5
	if r.cfg.quick {
		slice = 0.1
	}
	var overhead []float64
	for _, k := range ks {
		name := "proc.run_ns_per_instr." + k.id.slug()
		ns := make([]float64, 0, r.batchCount())
		for b := 0; b < r.batchCount(); b++ {
			c0 := k.p.Counters()
			t0 := time.Now()
			k.p.Run(m.Seconds(slice))
			t1 := time.Now()
			r.tr.add(name, 0, -1, t0, t1)
			ns = append(ns, float64(t1.Sub(t0).Nanoseconds())/float64(k.p.Counters().Instructions-c0.Instructions))
		}
		if st := k.p.State(); st != proc.Running {
			return fmt.Errorf("%v is %v in the ladder", k.id, st)
		}
		r.setN(name, median(ns), len(ns))
		overhead = append(overhead, median(ns)-r.metrics["cpu.step_ns."+k.id.slug()])
	}
	r.setN("proc.run_overhead_ns", stats.Mean(overhead), len(overhead))

	var ws []*workloads.Workload
	for _, p := range fleetPairs() {
		w, err := workloads.SharedCache().Build(p.bench, p.input, unbounded)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	var launchErr error
	perLaunch := r.perCall("proc.launch_ms", len(ws), func() {
		for _, w := range ws {
			if _, err := m.Launch(w.Bin, w.Setup); err != nil {
				launchErr = err
			}
		}
	})
	r.set("proc.launch_ms", perLaunch/1e6)
	return launchErr
}

// ladderPerf runs is with and without the PEBS sampler attached, in
// alternating slices, and times AggregateByPC on what it collected.
func (r *run) ladderPerf(m machine.Machine, is *kernelProc) {
	slice := m.Seconds(1)
	if r.cfg.quick {
		slice = m.Seconds(0.2)
	}
	nsPerInstr := func() float64 {
		c0 := is.p.Counters()
		t0 := time.Now()
		is.p.Run(slice)
		return float64(time.Since(t0).Nanoseconds()) / float64(is.p.Counters().Instructions-c0.Instructions)
	}
	var with, without []float64
	s := perf.NewSampler(m.PEBSPeriod, 1<<16)
	for b := 0; b < r.batchCount(); b++ {
		without = append(without, nsPerInstr())
		s.Attach(is.p)
		with = append(with, nsPerInstr())
		s.Detach()
	}
	r.setN("perf.sampler_overhead_ns_per_instr", median(with)-median(without), len(with))
	records := s.Records()
	r.set("perf.aggregate_us", r.perCall("perf.aggregate_us", 1, func() {
		ladderSink += uint64(len(perf.AggregateByPC(records, is.p)))
	})/1e3)
}

// ladderBolt times the rewrite pass and Apply on the six kernels that tune,
// at the sites the profiler picks.
func (r *run) ladderBolt(m machine.Machine) error {
	type target struct {
		w     *workloads.Workload
		cands []int
	}
	profileSeconds := 1.0
	if r.cfg.quick {
		profileSeconds = 0.3
	}
	var targets []target
	for _, p := range tuningPairs {
		w, err := workloads.SharedCache().Build(p.bench, p.input, unbounded)
		if err != nil {
			return err
		}
		cands, err := baselines.ProfileCandidates(w, m, profileSeconds)
		if err != nil {
			return fmt.Errorf("%v: %w", p, err)
		}
		targets = append(targets, target{w, cands})
	}
	const distance = 16
	rewrites := make([]*bolt.Rewrite, len(targets))
	var boltErr error
	inject := r.perCall("bolt.inject_us", len(targets), func() {
		for i, t := range targets {
			rw, err := bolt.InjectPrefetch(t.w.Bin, workloads.KernelFunc, t.cands, distance)
			if err != nil {
				boltErr = err
				return
			}
			rewrites[i] = rw
		}
	})
	if boltErr != nil {
		return boltErr
	}
	apply := r.perCall("bolt.apply_us", len(targets), func() {
		for i, t := range targets {
			if _, err := rewrites[i].Apply(t.w.Bin); err != nil {
				boltErr = err
			}
		}
	})
	f1 := 0
	for _, rw := range rewrites {
		f1 += len(rw.Code)
	}
	r.set("bolt.inject_us", inject/1e3)
	r.set("bolt.apply_us", apply/1e3)
	r.set("bolt.f1_instrs", float64(f1))
	return boltErr
}

// ladderBuilds times one cold BuildCache.Build of every fleet pair (the
// bulk of the fleet workloads' setup_s, whose median over several set-ups
// is the guarded number), then builds them again to count the hits.
func (r *run) ladderBuilds() error {
	t0 := time.Now()
	builds, err := prebuild()
	if err != nil {
		return err
	}
	t1 := time.Now()
	r.tr.add("workloads.build_ms", 0, -1, t0, t1)
	for _, p := range fleetPairs() {
		if _, err := builds.Build(p.bench, p.input, unbounded); err != nil {
			return err
		}
	}
	r.setN("workloads.build_ms", t1.Sub(t0).Seconds()*1e3, 1)
	r.set("workloads.cache_hits", float64(builds.Hits()))
	return nil
}

// storeKeys is the ladder's key population.
func storeKeys() []store.Key {
	keys := make([]store.Key, 64)
	for i := range keys {
		keys[i] = store.Key{Bench: fmt.Sprintf("bench%d", i%16), Input: fmt.Sprintf("input%d", i/16), Machine: "cascadelake"}
	}
	return keys
}

// ladderStore times reads and writes separately on each store, then the
// warm-start mix at W goroutines.
func (r *run) ladderStore() error {
	keys := storeKeys()
	entry := store.Entry{Func: workloads.KernelFunc, Candidates: []int{17}, Distance: 12, BaselineRate: 0.04, TunedRate: 0.07}
	// Lookups must keep hitting: no entry may go stale inside a batch.
	cfg := store.Config{MaxReuse: 1 << 30}
	// direct times calls Lookups, then calls Commits; perNS is 1 for a
	// metric in ns and 1e3 for one in us.
	direct := func(lookup, commit string, st store.Store, calls int, perNS float64) {
		for _, k := range keys {
			st.Commit(k, entry)
		}
		r.set(lookup, r.perCall(lookup, calls, func() {
			for i := 0; i < calls; i++ {
				e, _, _ := st.Lookup(keys[i%len(keys)])
				ladderSink += uint64(e.Distance)
			}
		})/perNS)
		r.set(commit, r.perCall(commit, calls, func() {
			for i := 0; i < calls; i++ {
				ladderSink += st.Commit(keys[i%len(keys)], entry)
			}
		})/perNS)
	}
	mixed := func(name string, st store.Store) {
		ops := r.scale(50_000)
		w := r.cfg.clients
		r.set(name, r.perCall(name, w*ops, func() {
			var wg sync.WaitGroup
			for g := 0; g < w; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						k := keys[(g*31+i)%len(keys)]
						_, gen, ok := st.Lookup(k)
						switch {
						case !ok:
							st.Commit(k, entry)
						case i%64 == 0:
							st.Refund(k, gen)
						}
					}
				}(g)
			}
			wg.Wait()
		}))
	}
	direct("store.memory_lookup_ns", "store.memory_commit_ns", store.NewMemory(cfg), r.scale(100_000), 1)
	direct("store.sharded_lookup_ns", "store.sharded_commit_ns", store.NewSharded(cfg, 8), r.scale(100_000), 1)
	mixed("store.memory_mixed_ns_par", store.NewMemory(store.Config{}))
	mixed("store.sharded_mixed_ns_par", store.NewSharded(store.Config{}, 8))

	// The remote store against an in-memory daemon: the price of the wire
	// alone. Its durability is priced separately, by the wal probes.
	daemon, err := stored.New(stored.Config{Store: cfg})
	if err != nil {
		return err
	}
	sv := &service{store: daemon}
	addr, err := sv.serve(daemon.HTTPServer())
	if err != nil {
		return err
	}
	defer sv.stop()
	client := remote.New(remote.Config{BaseURL: addr, HTTP: &http.Client{}})
	direct("store.remote_lookup_us", "store.remote_commit_us", client, r.scale(200), 1e3)
	if client.Degraded() {
		return fmt.Errorf("ladder: remote store degraded")
	}
	return nil
}

// ladderWAL times Append under each fsync policy and WriteAtomic of a
// 64-record snapshot, on the filesystem the benchmark runs on — these are
// numbers about that disk as much as about the code.
func (r *run) ladderWAL() error {
	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("ladder-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = 'a' + byte(i%26)
	}
	var walErr error
	for _, mode := range []struct {
		name    string
		sync    wal.SyncMode
		appends int
	}{
		{"wal.append_always_us", wal.SyncAlways, r.scale(20)},
		{"wal.append_interval_us", wal.SyncInterval, r.scale(640)},
		{"wal.append_onclose_us", wal.SyncOnClose, r.scale(640)},
	} {
		log, _, err := wal.Open(filepath.Join(dir, mode.name), wal.Config{Sync: mode.sync})
		if err != nil {
			return err
		}
		ns := r.perCall(mode.name, mode.appends, func() {
			for i := 0; i < mode.appends; i++ {
				if err := log.Append(payload); err != nil {
					walErr = err
				}
			}
		})
		r.set(mode.name, ns/1e3)
		if err := log.Close(); err != nil {
			return err
		}
	}
	records := make([][]byte, 64)
	for i := range records {
		records[i] = payload
	}
	r.set("wal.write_atomic_ms", r.perCall("wal.write_atomic_ms", 1, func() {
		if err := wal.WriteAtomic(filepath.Join(dir, "snapshot"), records); err != nil {
			walErr = err
		}
	})/1e6)
	return walErr
}
