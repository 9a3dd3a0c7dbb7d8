package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"rpg2/internal/admission"
	"rpg2/internal/workloads"
)

// seedTier is how an optimize session was seeded: cold (no profile), warm
// (this machine's cached profile), or translated (a sibling machine's
// profile with a latency-scaled distance).
type seedTier uint8

const (
	tierCold seedTier = iota
	tierWarm
	tierTranslated
)

// metrics accumulates fleet-wide counters; Snapshot freezes them.
type metrics struct {
	mu         sync.Mutex
	start      time.Time
	submitted  int
	completed  int
	failed     int
	degraded   int
	outcomes   map[string]int // terminal rpg2 outcome name -> count (optimize jobs)
	kinds      map[string]int // completed sessions per job kind
	wallSecs   []float64      // per completed session
	coldProbe  []int          // search probes per cold session that searched
	warmProbe  []int          // search probes per warm session that searched
	transProbe []int          // search probes per translated session that searched
	bypasses   map[string]int // store-bypass reason -> count

	// Phase-drift watchdog counters. driftDetected counts detector firings
	// that were acted on; retuneWindows accumulates the sample windows from
	// (re-)activation to each firing — the detection half of recovery
	// latency. All stay zero when the watchdog is disarmed.
	driftDetected    int
	retunesScheduled int
	retunesCompleted int
	retuneWindows    int

	// handlerPanics counts daemon handler panics the recovery middleware
	// caught (fleet-level incidents, not session outcomes).
	handlerPanics int
}

func newMetrics() *metrics {
	return &metrics{
		start:    time.Now(),
		outcomes: make(map[string]int),
		kinds:    make(map[string]int),
		bypasses: make(map[string]int),
	}
}

func (m *metrics) submit() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.submitted++
}

// bypass records an optimize attempt that skipped the store entirely.
func (m *metrics) bypass(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bypasses[reason]++
}

func (m *metrics) finish(outcome string, tier seedTier, probes int, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.outcomes[outcome]++
	m.kinds[OptimizeJob.String()]++
	m.wallSecs = append(m.wallSecs, wall.Seconds())
	if probes > 0 {
		switch tier {
		case tierWarm:
			m.warmProbe = append(m.warmProbe, probes)
		case tierTranslated:
			m.transProbe = append(m.transProbe, probes)
		default:
			m.coldProbe = append(m.coldProbe, probes)
		}
	}
}

// finishAux records a completed non-optimize session (baseline, static,
// sweep, profile, apt-get): wall latency and kind only — it has no
// controller outcome.
func (m *metrics) finishAux(kind string, wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.kinds[kind]++
	m.wallSecs = append(m.wallSecs, wall.Seconds())
}

func (m *metrics) fail(wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.failed++
	m.wallSecs = append(m.wallSecs, wall.Seconds())
}

// degrade records a session parked terminally by an open circuit breaker.
func (m *metrics) degrade(wall time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed++
	m.degraded++
	m.wallSecs = append(m.wallSecs, wall.Seconds())
}

// retuneScheduled records one acted-on watchdog firing and the sample
// windows it took to detect.
func (m *metrics) retuneScheduled(windows int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.driftDetected++
	m.retunesScheduled++
	m.retuneWindows += windows
}

// retuneComplete records one re-tune lane pass that re-activated.
func (m *metrics) retuneComplete() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retunesCompleted++
}

func (m *metrics) panicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlerPanics++
}

// Snapshot is a point-in-time view of the fleet's health — the counters the
// issue's operator story needs: throughput, activation and rollback rates,
// profile-store effectiveness, and the cold-vs-warm search cost.
type Snapshot struct {
	Workers   int `json:"workers"`
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Degraded  int `json:"degraded"`
	QueuePeak int `json:"queue_peak"`
	// QueueDepth is how many sessions are waiting right now (ready plus
	// retry lane) — the pressure reading submit backpressure keys off.
	// TenantQueue splits it per non-empty tenant.
	QueueDepth  int            `json:"queue_depth"`
	TenantQueue map[string]int `json:"tenant_queue,omitempty"`

	// Admission & resilience counters: retry-lane re-admissions, virtual
	// seconds consumed by backoff, dispatch attempts stalled on quotas,
	// breaker trips (and how many breakers are open right now), and the
	// scheduler's virtual clock.
	Retries         int     `json:"retries"`
	BackoffWaitSecs float64 `json:"backoff_wait_secs"`
	QuotaStalls     int     `json:"quota_stalls"`
	BreakerTrips    int     `json:"breaker_trips"`
	BreakersOpen    int     `json:"breakers_open"`
	VirtualClock    float64 `json:"virtual_clock"`
	// Breakers details every per-(bench, input) breaker with recorded
	// rollbacks: its state (open, half-open, closed) and consecutive-
	// rollback depth. Empty (and omitted) until a breaker sees trouble.
	Breakers []admission.BreakerState `json:"breakers,omitempty"`

	// Persistence reports the WAL layer: "" when the fleet is purely
	// in-memory, "active" when the state dir is live, "degraded" after a
	// disk failure flipped the fleet back to in-memory mode (the error
	// rides in PersistenceError).
	Persistence      string `json:"persistence,omitempty"`
	PersistenceError string `json:"persistence_error,omitempty"`
	// RemoteStore reports the shared out-of-process profile store: ""
	// when the fleet owns its store in-process, "active" while the
	// configured store daemon answers, "degraded" after the client spent
	// its retry budget and fell back permanently to a process-local store
	// (the error rides in RemoteStoreError). Omitted when no store
	// address is configured, so zero-knob snapshots stay byte-identical.
	RemoteStore      string `json:"remote_store,omitempty"`
	RemoteStoreError string `json:"remote_store_error,omitempty"`
	WALEpoch         int    `json:"wal_epoch,omitempty"`
	WALRecords       int    `json:"wal_records,omitempty"`
	WALSnapshots     int    `json:"wal_snapshots,omitempty"`
	// Self-healing persistence counters: disk-failure degradations seen,
	// successful re-arms (each one a fresh epoch re-seeded from the live
	// journal), and — while degraded with re-arming enabled — how many
	// journal events remain on the backoff clock before the next attempt.
	// All omitted on a fleet that never degraded, so zero-knob snapshots
	// are byte-identical to the pre-chaos fleet's.
	PersistDegradations int `json:"persist_degradations,omitempty"`
	PersistRearms       int `json:"persist_rearms,omitempty"`
	PersistRearmIn      int `json:"persist_rearm_in,omitempty"`
	// DiskFaultsInjected counts injected disk faults (Config.DiskFaults);
	// HandlerPanics counts daemon handler panics recovered by the
	// panic-recovery middleware. Both omitted at zero.
	DiskFaultsInjected int `json:"disk_faults_injected,omitempty"`
	HandlerPanics      int `json:"handler_panics,omitempty"`

	// Terminal outcome counts (rpg2 outcome names).
	Tuned        int `json:"tuned"`
	RolledBack   int `json:"rolled_back"`
	NotActivated int `json:"not_activated"`
	TargetExited int `json:"target_exited"`

	// Kinds counts completed sessions per job kind.
	Kinds map[string]int `json:"kinds,omitempty"`

	// ActivationRate is the share of completed optimize sessions where
	// RPG² injected code (tuned or rolled back); RollbackRate is the
	// share of activated sessions that rolled back.
	ActivationRate float64 `json:"activation_rate"`
	RollbackRate   float64 `json:"rollback_rate"`

	// SessionsPerSec is completed sessions per wall-clock second.
	SessionsPerSec float64 `json:"sessions_per_sec"`
	// P50Wall and P95Wall are wall-clock session latencies in seconds.
	P50Wall float64 `json:"p50_wall"`
	P95Wall float64 `json:"p95_wall"`

	// Store policy counters and the derived hit rate.
	Store        StoreCounters `json:"store"`
	StoreHitRate float64       `json:"store_hit_rate"`
	StoreEntries int           `json:"store_entries"`

	// Workload build-cache counters: graph constructions performed and
	// Build calls served by an existing entry.
	BuildConstructs int64 `json:"build_constructs"`
	BuildHits       int64 `json:"build_hits"`

	// Search cost split by temperature: mean distance probes per session
	// that ran a search. Translated sessions — seeded from a sibling
	// machine's profile — are a third tier between warm and cold.
	ColdSessions         int     `json:"cold_sessions"`
	WarmSessions         int     `json:"warm_sessions"`
	TranslatedSessions   int     `json:"translated_sessions"`
	ColdProbesMean       float64 `json:"cold_probes_mean"`
	WarmProbesMean       float64 `json:"warm_probes_mean"`
	TranslatedProbesMean float64 `json:"translated_probes_mean"`

	// StoreBypasses counts optimize attempts that skipped the store
	// entirely, by reason ("cold", "retry", "retune", "disabled") — the
	// demand the hit rate never sees. Empty (and omitted) when every
	// attempt asked.
	StoreBypasses map[string]int `json:"store_bypasses,omitempty"`

	// Phase-drift watchdog counters: detector firings acted on, re-tune
	// lane admissions, re-tunes that re-activated, and the mean sample
	// windows from activation to detection. All omitted when the watchdog
	// is disarmed, so zero-knob snapshots are byte-identical.
	DriftDetected     int     `json:"drift_detected,omitempty"`
	RetunesScheduled  int     `json:"retunes_scheduled,omitempty"`
	RetunesCompleted  int     `json:"retunes_completed,omitempty"`
	DetectWindowsMean float64 `json:"detect_windows_mean,omitempty"`
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

func (m *metrics) snapshot(st Store, builds *workloads.BuildCache, workers, queuePeak, queueDepth int,
	tenantQueue map[string]int, sched admission.Stats, breakersOpen int, breakers []admission.BreakerState) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Workers:              workers,
		Submitted:            m.submitted,
		Completed:            m.completed,
		Failed:               m.failed,
		Degraded:             m.degraded,
		QueuePeak:            queuePeak,
		QueueDepth:           queueDepth,
		TenantQueue:          tenantQueue,
		Retries:              sched.Retries,
		BackoffWaitSecs:      sched.BackoffWait,
		QuotaStalls:          sched.QuotaStalls,
		BreakerTrips:         sched.BreakerTrips,
		BreakersOpen:         breakersOpen,
		Breakers:             breakers,
		VirtualClock:         sched.Clock,
		Tuned:                m.outcomes["tuned"],
		RolledBack:           m.outcomes["rolled-back"],
		NotActivated:         m.outcomes["not-activated"],
		TargetExited:         m.outcomes["target-exited"],
		ColdSessions:         len(m.coldProbe),
		WarmSessions:         len(m.warmProbe),
		TranslatedSessions:   len(m.transProbe),
		ColdProbesMean:       meanInt(m.coldProbe),
		WarmProbesMean:       meanInt(m.warmProbe),
		TranslatedProbesMean: meanInt(m.transProbe),
		DriftDetected:        m.driftDetected,
		RetunesScheduled:     m.retunesScheduled,
		RetunesCompleted:     m.retunesCompleted,
		HandlerPanics:        m.handlerPanics,
	}
	if m.driftDetected > 0 {
		s.DetectWindowsMean = float64(m.retuneWindows) / float64(m.driftDetected)
	}
	if len(m.bypasses) > 0 {
		s.StoreBypasses = make(map[string]int, len(m.bypasses))
		for k, n := range m.bypasses {
			s.StoreBypasses[k] = n
		}
	}
	if len(m.kinds) > 0 {
		s.Kinds = make(map[string]int, len(m.kinds))
		for k, n := range m.kinds {
			s.Kinds[k] = n
		}
	}
	optimized := 0
	for _, n := range m.outcomes {
		optimized += n
	}
	if optimized > 0 {
		s.ActivationRate = float64(s.Tuned+s.RolledBack) / float64(optimized)
	}
	if n := s.Tuned + s.RolledBack; n > 0 {
		s.RollbackRate = float64(s.RolledBack) / float64(n)
	}
	if el := time.Since(m.start).Seconds(); el > 0 {
		s.SessionsPerSec = float64(s.Completed) / el
	}
	sorted := append([]float64(nil), m.wallSecs...)
	sort.Float64s(sorted)
	s.P50Wall = percentile(sorted, 0.50)
	s.P95Wall = percentile(sorted, 0.95)
	if st != nil {
		s.Store = st.Counters()
		s.StoreEntries = st.Len()
		if n := s.Store.Hits + s.Store.Misses; n > 0 {
			s.StoreHitRate = float64(s.Store.Hits) / float64(n)
		}
	}
	if builds != nil {
		s.BuildConstructs = builds.Builds()
		s.BuildHits = builds.Hits()
	}
	return s
}

// Render formats the snapshot as the operator-facing text block printed by
// cmd/rpg2-fleet.
func (s Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet snapshot\n")
	fmt.Fprintf(&b, "  sessions       %d submitted, %d completed, %d failed, %d degraded\n",
		s.Submitted, s.Completed, s.Failed, s.Degraded)
	fmt.Fprintf(&b, "  outcomes       %d tuned, %d rolled-back, %d not-activated, %d target-exited\n",
		s.Tuned, s.RolledBack, s.NotActivated, s.TargetExited)
	if len(s.Kinds) > 0 {
		ks := make([]string, 0, len(s.Kinds))
		for k := range s.Kinds {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		parts := make([]string, len(ks))
		for i, k := range ks {
			parts[i] = fmt.Sprintf("%s %d", k, s.Kinds[k])
		}
		fmt.Fprintf(&b, "  job kinds      %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "  rates          activation %.1f%%, rollback %.1f%%\n",
		100*s.ActivationRate, 100*s.RollbackRate)
	fmt.Fprintf(&b, "  throughput     %.2f sessions/s, wall p50 %.3fs p95 %.3fs\n",
		s.SessionsPerSec, s.P50Wall, s.P95Wall)
	fmt.Fprintf(&b, "  profile store  %d hits, %d misses (hit rate %.1f%%), %d stale, %d invalidated, %d commits, %d live\n",
		s.Store.Hits, s.Store.Misses, 100*s.StoreHitRate,
		s.Store.Stale, s.Store.Invalidations, s.Store.Commits, s.StoreEntries)
	if s.Store.Translations > 0 || s.Store.Refunds > 0 {
		fmt.Fprintf(&b, "  store extras   %d cross-machine translations, %d refunds\n",
			s.Store.Translations, s.Store.Refunds)
	}
	if len(s.StoreBypasses) > 0 {
		reasons := make([]string, 0, len(s.StoreBypasses))
		for r := range s.StoreBypasses {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		parts := make([]string, len(reasons))
		for i, r := range reasons {
			parts[i] = fmt.Sprintf("%d %s", s.StoreBypasses[r], r)
		}
		fmt.Fprintf(&b, "  store bypasses %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "  workload cache %d graph builds, %d cache hits\n",
		s.BuildConstructs, s.BuildHits)
	fmt.Fprintf(&b, "  search probes  cold %.1f mean over %d sessions, warm %.1f mean over %d sessions\n",
		s.ColdProbesMean, s.ColdSessions, s.WarmProbesMean, s.WarmSessions)
	if s.TranslatedSessions > 0 {
		fmt.Fprintf(&b, "  translated     %.1f mean probes over %d cross-machine seeded sessions\n",
			s.TranslatedProbesMean, s.TranslatedSessions)
	}
	fmt.Fprintf(&b, "  scheduling     %d workers, queue depth %d (peak %d)\n",
		s.Workers, s.QueueDepth, s.QueuePeak)
	if len(s.TenantQueue) > 0 {
		ts := make([]string, 0, len(s.TenantQueue))
		for t := range s.TenantQueue {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		parts := make([]string, len(ts))
		for i, t := range ts {
			parts[i] = fmt.Sprintf("%s %d", t, s.TenantQueue[t])
		}
		fmt.Fprintf(&b, "  tenant queues  %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "  resilience     %d retries (%.1fs backoff), %d quota stalls, %d breaker trips (%d open)\n",
		s.Retries, s.BackoffWaitSecs, s.QuotaStalls, s.BreakerTrips, s.BreakersOpen)
	if s.DriftDetected > 0 || s.RetunesScheduled > 0 {
		fmt.Fprintf(&b, "  drift watchdog %d drift firings (%.1f windows mean to detect), %d re-tunes scheduled, %d re-activated\n",
			s.DriftDetected, s.DetectWindowsMean, s.RetunesScheduled, s.RetunesCompleted)
	}
	// Per-key breaker detail: which (bench, input) keys are in trouble and
	// how deep, not just how many are open.
	for _, br := range s.Breakers {
		key := br.Key.Bench
		if br.Key.Input != "" {
			key += "/" + br.Key.Input
		}
		fmt.Fprintf(&b, "    breaker      %-14s %s, %d consecutive rollbacks", key, br.State(), br.Consecutive)
		if br.Open && !br.HalfOpen {
			fmt.Fprintf(&b, ", half-open trial at t=%.1fs", br.ReopenAt)
		}
		fmt.Fprintf(&b, "\n")
	}
	switch s.Persistence {
	case "active":
		fmt.Fprintf(&b, "  persistence    active: epoch %d, %d WAL records, %d snapshots\n",
			s.WALEpoch, s.WALRecords, s.WALSnapshots)
		if s.PersistRearms > 0 {
			fmt.Fprintf(&b, "  persistence    re-armed %dx after %d degradations\n",
				s.PersistRearms, s.PersistDegradations)
		}
	case "degraded":
		fmt.Fprintf(&b, "  persistence    degraded (continuing in-memory): %s\n", s.PersistenceError)
		if s.PersistRearmIn > 0 {
			fmt.Fprintf(&b, "  persistence    re-arm pending in %d events (%d degradations, %d prior re-arms)\n",
				s.PersistRearmIn, s.PersistDegradations, s.PersistRearms)
		}
	}
	switch s.RemoteStore {
	case "active":
		fmt.Fprintf(&b, "  remote store   active (shared store daemon)\n")
	case "degraded":
		fmt.Fprintf(&b, "  remote store   degraded (continuing on a process-local store): %s\n", s.RemoteStoreError)
	}
	if s.DiskFaultsInjected > 0 {
		fmt.Fprintf(&b, "  chaos          %d disk faults injected\n", s.DiskFaultsInjected)
	}
	if s.HandlerPanics > 0 {
		fmt.Fprintf(&b, "  chaos          %d handler panics recovered\n", s.HandlerPanics)
	}
	return b.String()
}
