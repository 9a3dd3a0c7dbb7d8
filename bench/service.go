package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rpg2/internal/fleet"
	"rpg2/internal/fleetclient"
	"rpg2/internal/fleetd"
	"rpg2/internal/machine"
	"rpg2/internal/store"
	"rpg2/internal/store/remote"
	"rpg2/internal/stored"
	"rpg2/internal/wal"
)

// One service-durable round is each tuning pair five
// times and each non-tuning pair once. A pair that never tunes never
// commits, so every one of its sessions is a store miss; weighting the mix
// towards pairs that tune is what lets warm sessions reach the >= 0.8 hit
// ratio at which the store, the WAL and the network are as large a share of
// a session as this system can make them.
const (
	tuningPerRound    = 5
	nonTuningPerRound = 1
	pollInterval      = 2 * time.Millisecond
	sessionTimeout    = 2 * time.Minute
)

// serviceSpecs is one round's spec list; every round submits it in a fresh
// seeded order (reorder). As on fleet-cold, repetition j of a pair carries
// controller seed j+1. Sessions are store-enabled, so what each does
// depends on what ran before it: outcomes here are checked for success,
// not for equality.
func serviceSpecs(quick bool) []fleet.SpecRecord {
	var specs []fleet.SpecRecord
	add := func(pairs []kernelID, times int) {
		for rep := 0; rep < times; rep++ {
			for _, p := range pairs {
				specs = append(specs, fleet.SpecRecord{Bench: p.bench, Input: p.input, Seed: int64(rep + 1)})
			}
		}
	}
	if quick {
		add(fleetPairs(), 1)
	} else {
		add(tuningPairs, tuningPerRound)
		add(nonTuningPairs, nonTuningPerRound)
	}
	return specs
}

// warmupSpecs fills the store: one session per pair.
func warmupSpecs() []fleet.SpecRecord {
	var specs []fleet.SpecRecord
	for _, p := range fleetPairs() {
		specs = append(specs, fleet.SpecRecord{Bench: p.bench, Input: p.input, Seed: 1000})
	}
	return specs
}

// timedStore is the store decorator of the traced pass: it times every call
// a session makes on the profile store and records it as a span.
type timedStore struct {
	store.Store
	tr *tracer

	mu   sync.Mutex
	used timedStoreUse
}

// timedStoreUse is what sessions have asked of the store so far; two of
// them bracket a pass.
type timedStoreUse struct {
	calls    int
	us       float64 // all calls
	lookupUS float64 // the calls a session makes before its first phase
	counters store.Counters
}

func (t *timedStore) time(name string, lookupSide bool, start time.Time) {
	end := time.Now()
	t.tr.add("store."+name, 0, -1, start, end)
	us := float64(end.Sub(start).Nanoseconds()) / 1e3
	t.mu.Lock()
	t.used.calls++
	t.used.us += us
	if lookupSide {
		t.used.lookupUS += us
	}
	t.mu.Unlock()
}

func (t *timedStore) use() timedStoreUse {
	t.mu.Lock()
	u := t.used
	t.mu.Unlock()
	u.counters = t.Counters()
	return u
}

// storeLayers reports the store's share of n sessions run between two
// readings of the decorator.
func (r *run) storeLayers(before, after timedStoreUse, n int) {
	hits := float64(after.counters.Hits - before.counters.Hits)
	misses := float64(after.counters.Misses - before.counters.Misses)
	r.set("store.ops_per_session", float64(after.calls-before.calls)/float64(n))
	r.set("store.hit_ratio", ratio(hits, hits+misses))
	r.set("store.time_per_session_us", (after.us-before.us)/float64(n))
}

func (t *timedStore) Lookup(k store.Key) (store.Entry, uint64, bool) {
	defer t.time("Lookup", true, time.Now())
	return t.Store.Lookup(k)
}

func (t *timedStore) LookupTranslated(k store.Key) (store.Entry, store.Key, uint64, bool) {
	defer t.time("LookupTranslated", true, time.Now())
	return t.Store.LookupTranslated(k)
}

func (t *timedStore) Commit(k store.Key, e store.Entry) uint64 {
	defer t.time("Commit", false, time.Now())
	return t.Store.Commit(k, e)
}

func (t *timedStore) Refund(k store.Key, gen uint64) bool {
	defer t.time("Refund", true, time.Now())
	return t.Store.Refund(k, gen)
}

func (t *timedStore) Invalidate(k store.Key, gen uint64) bool {
	defer t.time("Invalidate", false, time.Now())
	return t.Store.Invalidate(k, gen)
}

// timingTransport is the http.RoundTripper of the traced pass: round-trip
// time per route, a span per request whose parent is the client call that
// made it, and a count of attempts that a retrying client would retry.
type timingTransport struct {
	base http.RoundTripper
	tr   *tracer

	mu      sync.Mutex
	rttUS   map[string][]float64
	retries int
}

func newTimingTransport(tr *tracer) *timingTransport {
	return &timingTransport{base: http.DefaultTransport, tr: tr, rttUS: map[string][]float64{}}
}

// routeOf folds a request onto the route names the metrics use.
func routeOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/sessions":
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/sessions/"):
		return "status"
	case p == "/v1/metrics":
		return "metrics"
	case strings.HasPrefix(p, "/v1/store/"):
		return "store." + strings.TrimPrefix(p, "/v1/store/")
	}
	return p
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	route := routeOf(req)
	parent := spanOf(req.Context())
	t.tr.add("http "+route, parent.id, parent.session, start, end)
	t.mu.Lock()
	t.rttUS[route] = append(t.rttUS[route], float64(end.Sub(start).Nanoseconds())/1e3)
	if err != nil || resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusGatewayTimeout {
		t.retries++
	}
	t.mu.Unlock()
	return resp, err
}

func (t *timingTransport) retried() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries
}

func (t *timingTransport) rtt(route string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.rttUS[route]...)
}

// timedHandler is the timing middleware around a daemon's Handler().
type timedHandler struct {
	name string
	next http.Handler
	tr   *tracer

	mu sync.Mutex
	us []float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	h.next.ServeHTTP(w, req)
	end := time.Now()
	h.tr.add(h.name+" "+routeOf(req), 0, -1, start, end)
	h.mu.Lock()
	h.us = append(h.us, float64(end.Sub(start).Nanoseconds())/1e3)
	h.mu.Unlock()
}

func (h *timedHandler) samples() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.us...)
}

// service is the whole stack in one process over loopback TCP:
// stored (WAL, fsync always) <- remote store <- fleetd (WAL, fsync always)
// <- fleetclient.
type service struct {
	fleetCfg fleet.Config
	store    *stored.Server
	daemon   *fleetd.Server
	servers  []*http.Server
	serving  sync.WaitGroup
	client   *fleetclient.Client
	remote   *remote.Client // the traced instance's own store client; nil otherwise
	epoch    time.Time      // when the daemon's fleet opened its journal

	// Traced instances only.
	ts            *timedStore
	transport     *timingTransport
	storedHandler *timedHandler
	fleetdHandler *timedHandler
}

// serve starts srv on a loopback port of the kernel's choosing.
func (sv *service) serve(srv *http.Server) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	sv.servers = append(sv.servers, srv)
	sv.serving.Add(1)
	go func() {
		defer sv.serving.Done()
		srv.Serve(l) // returns http.ErrServerClosed on Shutdown
	}()
	return "http://" + l.Addr().String(), nil
}

// startService builds the stack under dir and runs the warm-up round. With
// a tracer, every boundary is wrapped: handlers, both HTTP clients, and the
// store the fleet sees.
func (r *run) startService(dir string, tr *tracer) (*service, error) {
	sv := &service{}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	builds, err := prebuild()
	if err != nil {
		return nil, err
	}
	sv.store, err = stored.New(stored.Config{StateDir: filepath.Join(dir, "stored"), Fsync: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("stored: %w", err)
	}
	storeSrv := sv.store.HTTPServer()
	if tr != nil {
		sv.storedHandler = &timedHandler{name: "stored.handler", next: storeSrv.Handler, tr: tr}
		storeSrv.Handler = sv.storedHandler
	}
	storeAddr, err := sv.serve(storeSrv)
	if err != nil {
		sv.stop()
		return nil, err
	}
	sv.fleetCfg = fleet.Config{
		Machine: machine.CascadeLake(), Workers: r.cfg.clients, Builds: builds,
		StoreAddr: storeAddr, StateDir: filepath.Join(dir, "fleetd"), Fsync: wal.SyncAlways, Overwrite: true,
	}
	httpClient := http.DefaultClient
	if tr != nil {
		sv.transport = newTimingTransport(tr)
		httpClient = &http.Client{Transport: sv.transport}
		// StoreAddr stays set beside Store: it is what tells the fleet its
		// store is remote (no store contents in its own WAL).
		sv.remote = remote.New(remote.Config{BaseURL: storeAddr, HTTP: httpClient})
		sv.ts = &timedStore{Store: sv.remote, tr: tr}
		sv.fleetCfg.Store = sv.ts
	}
	sv.epoch = time.Now()
	sv.daemon, err = fleetd.New(fleetd.Config{Fleet: sv.fleetCfg})
	if err != nil {
		sv.stop()
		return nil, fmt.Errorf("fleetd: %w", err)
	}
	daemonSrv := sv.daemon.HTTPServer()
	if tr != nil {
		sv.fleetdHandler = &timedHandler{name: "fleetd.handler", next: daemonSrv.Handler, tr: tr}
		daemonSrv.Handler = sv.fleetdHandler
	}
	daemonAddr, err := sv.serve(daemonSrv)
	if err != nil {
		sv.stop()
		return nil, err
	}
	sv.client = fleetclient.New(fleetclient.Config{BaseURL: daemonAddr, HTTP: httpClient, PollInterval: pollInterval})

	warm := &run{cfg: r.cfg}
	sv.round(warm, warmupSpecs(), nil, 0)
	if warm.failed > 0 {
		sv.stop()
		return nil, fmt.Errorf("warm-up round: %v", warm.failures)
	}
	return sv, nil
}

// stop drains both daemons and waits for every server goroutine to end.
// The state dirs stay on disk for the recovery probe; the caller removes
// them.
func (sv *service) stop() {
	if sv.daemon != nil {
		sv.daemon.Drain()
	}
	if sv.store != nil {
		sv.store.Drain()
	}
	// Every client here dials through http.DefaultTransport. Closing its
	// idle connections first matters: Shutdown waits five seconds on a
	// connection that was dialled but never carried a request.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, srv := range sv.servers {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}
	sv.serving.Wait()
}

// serviceRound is one closed-loop round: W clients, each Submit then Wait
// then the next spec.
type serviceRound struct {
	wall    time.Duration
	latency []float64 // seconds, Submit sent to Wait returned, per spec
	ids     []int     // daemon session IDs, per spec (-1 if the submit failed)
}

func (sv *service) round(r *run, specs []fleet.SpecRecord, tr *tracer, parent int) serviceRound {
	res := serviceRound{latency: make([]float64, len(specs)), ids: make([]int, len(specs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r
	t0 := time.Now()
	for c := 0; c < r.cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				why := sv.session(specs[i], tr, parent, &res.latency[i], &res.ids[i])
				mu.Lock()
				r.op(1)
				if why != "" {
					r.fail("%s/%s seed %d: %s", specs[i].Bench, specs[i].Input, specs[i].Seed, why)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// session runs one spec through the client and reports why it failed ("" if
// it did not): a client that exhausts its retries, a session that errors,
// or one that ends anywhere but done or rolled-back.
func (sv *service) session(spec fleet.SpecRecord, tr *tracer, parent int, latency *float64, id *int) string {
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	*id = -1
	start := time.Now()
	root := tr.open("client.session", parent, -1)
	defer tr.close(root)
	sub := tr.open("fleetclient.Submit", root, -1)
	sid, err := sv.client.Submit(withSpan(ctx, sub, -1), spec)
	tr.close(sub)
	if err != nil {
		return "submit: " + err.Error()
	}
	*id = sid
	wait := tr.open("fleetclient.Wait", root, sid)
	wctx := withSpan(ctx, wait, sid)
	out, err := sv.client.Wait(wctx, sid)
	// fleetd publishes a session's terminal state before it stores the
	// report (the state's journal append, an fsync here, sits between the
	// two), so a poll can land in the gap and fetch a result with no
	// report. A client that wants the report asks again.
	for err == nil && out.Err == "" && out.Report == nil {
		select {
		case <-wctx.Done():
			err = wctx.Err()
		case <-time.After(pollInterval):
			out, _, err = sv.client.Result(wctx, sid)
		}
	}
	tr.close(wait)
	*latency = time.Since(start).Seconds()
	switch {
	case err != nil:
		return "wait: " + err.Error()
	case out.Err != "":
		return "session error: " + out.Err
	case out.State != fleet.Done.String() && out.State != fleet.RolledBack.String():
		return "ended " + out.State
	case out.Report == nil:
		return "no report"
	}
	return ""
}

// checkDurable fails closed on a degrade: a fleet that fell back to memory,
// or to a local store, has silently dropped the layers this workload
// measures and would read as a speed-up. It returns the final snapshot and
// the /v1/metrics round trip that fetched it.
func (sv *service) checkDurable(r *run) (fleet.Snapshot, error) {
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	snap, err := sv.client.Metrics(ctx)
	if err != nil {
		return snap, fmt.Errorf("final /v1/metrics: %w", err)
	}
	r.op(3)
	if snap.Persistence != "active" {
		r.fail("fleet persistence is %q (%s), want active", snap.Persistence, snap.PersistenceError)
	}
	if snap.RemoteStore != "active" || (sv.remote != nil && sv.remote.Degraded()) {
		r.fail("remote store is %q (%s), want active", snap.RemoteStore, snap.RemoteStoreError)
	}
	if msg, bad := sv.store.Degraded(); bad {
		r.fail("stored persistence degraded: %s", msg)
	}
	return snap, nil
}

// servicePass runs rounds until minRounds and deadline are both met.
func (r *run) servicePass(sv *service, specs []fleet.SpecRecord, minRounds int, deadline time.Time, tr *tracer) (fleetPass, []serviceRound) {
	var p fleetPass
	var rounds []serviceRound
	refBefore := r.ref.run(refOps)
	for p.rounds < minRounds || time.Now().Before(deadline) {
		reorder(r, specs)
		root := tr.open("service.round", 0, -1)
		sr := sv.round(r, specs, tr, root)
		tr.close(root)
		refAfter := r.ref.run(refOps)
		p.addRound(sr.wall, sr.latency, (refBefore+refAfter)/2)
		refBefore = refAfter
		rounds = append(rounds, sr)
	}
	return p, rounds
}

func runService(r *run) error {
	sz := r.fleetSizes()
	specs := serviceSpecs(r.cfg.quick)
	base := filepath.Join(r.cfg.outDir, fmt.Sprintf("state-%d", os.Getpid()))
	defer os.RemoveAll(base)

	if !r.cfg.trace {
		var sv *service
		instance := 0
		setupS, err := r.setUps(sz.setups, func() { sv.stop(); sv = nil }, func() (err error) {
			instance++
			sv, err = r.startService(filepath.Join(base, fmt.Sprint(instance)), nil)
			return err
		})
		if err != nil {
			return err
		}
		defer sv.stop()
		deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
		p, _ := r.servicePass(sv, specs, sz.serviceMinRounds, deadline, nil)
		if _, err := sv.checkDurable(r); err != nil {
			return err
		}
		return r.endToEnd(&p, setupS)
	}

	if err := r.ladder(); err != nil {
		return err
	}
	rounds := r.tracedRounds(sz.serviceMinRounds, len(specs))

	// Untraced instance: the baseline the tracing overhead is taken against.
	sv, err := r.startService(filepath.Join(base, "plain"), nil)
	if err != nil {
		return err
	}
	u0 := readHostUsage()
	plain, _ := r.servicePass(sv, specs, rounds, time.Time{}, nil)
	u1 := readHostUsage()
	_, err = sv.checkDurable(r)
	sv.stop()
	if err != nil {
		return err
	}

	// Traced instance: every boundary wrapped.
	sv, err = r.startService(filepath.Join(base, "traced"), r.tr)
	if err != nil {
		return err
	}
	f := sv.daemon.Fleet()
	store0 := sv.ts.use()
	wal0 := f.Snapshot().WALRecords
	status0 := len(sv.transport.rtt("status"))
	traced, tracedRounds := r.servicePass(sv, specs, rounds, time.Time{}, r.tr)
	snap, err := sv.checkDurable(r)
	if err != nil {
		sv.stop()
		return err
	}
	store1 := sv.ts.use()
	n := float64(traced.sessions)

	var sessions []*fleet.Session
	byID := map[int]*fleet.Session{}
	for _, s := range f.Sessions() {
		byID[s.ID] = s
	}
	for _, sr := range tracedRounds {
		for _, id := range sr.ids {
			if s := byID[id]; s != nil {
				sessions = append(sessions, s)
				r.sessionSpans(0, id, sv.epoch, journalTimes(f.Journal(), id))
			}
		}
	}
	if _, err := r.sessionLayers(f, sessions, traced.latMS); err != nil {
		sv.stop()
		return err
	}
	r.storeLayers(store0, store1, traced.sessions)
	for _, h := range []*timedHandler{sv.storedHandler, sv.fleetdHandler} {
		us := h.samples()
		r.setN(h.name+"_us_p50", median(us), len(us))
	}
	for _, route := range []string{"submit", "status", "result", "metrics"} {
		xs := sv.transport.rtt(route)
		r.setN("fleetd."+route+"_rtt_us", median(xs), len(xs))
	}
	polls := float64(len(sv.transport.rtt("status"))-status0) / n
	r.set("fleetclient.polls_per_session", polls)
	r.set("fleetclient.retries", float64(sv.transport.retried()))
	r.set("wal.records_per_session", float64(snap.WALRecords-wal0)/n)
	sv.stop()

	// The read side of the WAL the workload just wrote.
	t0 := time.Now()
	recCfg := sv.fleetCfg
	recCfg.Store, recCfg.StoreAddr = nil, ""
	rf, _, err := fleet.Recover(sv.fleetCfg.StateDir, recCfg)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	rf.Close()
	r.setN("fleet.recover_ms", time.Since(t0).Seconds()*1e3, 1)

	// The same spec list on an in-process fleet with a memory store and no
	// state dir: what a session costs without persistence or a network.
	in, err := r.inprocWarm(specs, rounds)
	if err != nil {
		return err
	}
	r.setN("fleet.session_ms_inproc_warm", median(in.wallMS), len(in.wallMS))
	r.setN("fleet.submit_us", median(in.submitUS), len(in.submitUS))
	r.setN("rpg2.insert_ms", median(in.insertMS), len(in.insertMS))
	r.setN("rpg2.detach_ms", median(in.detachMS), len(in.detachMS))
	r.set("service.overhead_share", ratio(median(plain.latMS)-median(in.wallMS), median(plain.latMS)))

	r.hostMetrics(u0, u1, plain.sessions, plain.refNS)
	r.setN("host.sessions_per_s", median(plain.perSec), plain.rounds)
	r.zero("host.ns_per_instr")
	r.zero(simLayerMetrics...)
	r.set("trace.overhead_share", (traced.wallNS-plain.wallNS)/plain.wallNS)
	// Per session: the journal's phases (which contain the commit and the
	// WAL appends), the store calls made before the first phase, the submit
	// and result round trips, and per poll half an interval plus one status
	// round trip. What is left is launch, init-wait and scheduling.
	perSessionMS := r.metrics["rpg2.profile_ms"] + r.metrics["rpg2.rewrite_ms"] + r.metrics["rpg2.tune_ms"] +
		(store1.lookupUS-store0.lookupUS)/n/1e3 + (r.metrics["fleetd.submit_rtt_us"]+r.metrics["fleetd.result_rtt_us"])/1e3 +
		pollInterval.Seconds()*1e3/2 + r.metrics["fleetd.status_rtt_us"]/1e3
	r.set("trace.explained_share", ratio(perSessionMS, median(traced.latMS)))
	r.set("trace.spans", float64(r.tr.count()))
	return nil
}

// inprocReplay is what the in-process replay measured: per-session
// Session.Wall in ms, Submit cost in us, and the hook-derived insert and
// detach times in ms.
type inprocReplay struct {
	wallMS, submitUS, insertMS, detachMS []float64
}

// inprocWarm replays the service spec list on an in-process fleet: a
// warm-up round, then the given number of rounds with the phase-stamping
// hook.
func (r *run) inprocWarm(records []fleet.SpecRecord, rounds int) (inprocReplay, error) {
	var res inprocReplay
	builds, err := prebuild()
	if err != nil {
		return res, err
	}
	epoch := time.Now()
	f := fleet.New(fleet.Config{Machine: machine.CascadeLake(), Workers: r.cfg.clients, Builds: builds})
	defer f.Close()
	toSpecs := func(recs []fleet.SpecRecord) []fleet.SessionSpec {
		specs := make([]fleet.SessionSpec, len(recs))
		for i := range recs {
			specs[i] = recs[i].Spec()
		}
		return specs
	}
	if _, err := submitAndDrain(f, toSpecs(warmupSpecs())); err != nil {
		return res, err
	}
	specs := toSpecs(records)
	pc := newPhaseClock()
	for i := range specs {
		specs[i].Config = pc.hook()
	}
	for i := 0; i < rounds; i++ {
		pc.reset()
		reorder(r, specs)
		dr, err := submitAndDrain(f, specs)
		if err != nil {
			return res, err
		}
		res.submitUS = append(res.submitUS, dr.submitUS...)
		for _, s := range dr.sessions {
			r.op(1)
			if _, why := outcomeOf(s); why != "" {
				r.fail("in-process replay: %s", why)
				continue
			}
			res.wallMS = append(res.wallMS, s.Wall().Seconds()*1e3)
			ins, det := pc.insertDetach(s, epoch, journalTimes(f.Journal(), s.ID))
			res.insertMS = append(res.insertMS, ins...)
			res.detachMS = append(res.detachMS, det...)
		}
	}
	return res, nil
}
