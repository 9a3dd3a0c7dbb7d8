package fleet

import (
	"fmt"
	"sort"
	"strings"

	"rpg2/internal/admission"
)

// Snapshot is a point-in-time view of the fleet's health: what the
// journal's fold says about its sessions (throughput, outcomes, activation
// and rollback rates, the cold-vs-warm search cost, drift and store-bypass
// records) beside the scheduler, profile-store, build-cache and
// persistence counters.
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
	// seconds consumed by backoff, breaker trips (and how many breakers are
	// open right now), and the scheduler's virtual clock.
	Retries         int     `json:"retries"`
	BackoffWaitSecs float64 `json:"backoff_wait_secs"`
	// QuotaStalls is always 0: the per-pair and per-tenant in-flight
	// quotas it counted stalls on are gone. It is kept, with its JSON key
	// and its "quota stalls" text, because the repo benchmark reads it
	// (admission.quota_stalls) and the rpg2-fleet snapshot goldens print
	// it; it goes when the benchmark drops that metric.
	QuotaStalls  int     `json:"quota_stalls"`
	BreakerTrips int     `json:"breaker_trips"`
	BreakersOpen int     `json:"breakers_open"`
	VirtualClock float64 `json:"virtual_clock"`
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
		fmt.Fprintf(&b, "  job kinds      %s\n", joinSorted(s.Kinds, "%s %d"))
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
		fmt.Fprintf(&b, "  store bypasses %s\n", joinSorted(s.StoreBypasses, "%[2]d %[1]s"))
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
		fmt.Fprintf(&b, "  tenant queues  %s\n", joinSorted(s.TenantQueue, "%s %d"))
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

// joinSorted renders a count map in key order, each entry through format
// (key first, count second), comma-separated.
func joinSorted(m map[string]int, format string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf(format, k, m[k])
	}
	return strings.Join(parts, ", ")
}
