// One fold over the journal. A session's story — admission, phases,
// attempts, seeding, re-tunes, outcome — is told once, by its Events, and
// every reader of it reads this fold rather than keeping a copy: Snapshot,
// the daemon's status poll, crash recovery (readState) and the WAL re-arm.
// Journal.add applies each record under the journal lock in Seq order,
// which is the order the WAL holds and readState replays, so a live view
// and a recovery of the same records agree by construction.
package fleet

import (
	"sort"

	rpgcore "rpg2/internal/rpg2"
)

// SessionView is one session as its journal records tell it: the state and
// attempt the records put it in, how it was seeded, the current attempt's
// failure, the terminal report, and its re-tune lane posture (DESIGN.md §8).
//
// The posture is kept here only. Retunes counts the lane's completed passes.
// Retuning is true from a retune-scheduled record until the pass it grants
// ends: its retune-complete, or the session's next terminal record or
// retry-scheduled. A drain's cancellation is no end — the pass never ran,
// and recovery re-admits it into the lane. granted is the lane's grants
// consumed and retuneDistance the warm seed of the last one.
type SessionView struct {
	State      string
	Attempt    int
	Warm       bool
	Translated bool
	Err        string
	Report     *rpgcore.Report
	Retunes    int
	Retuning   bool

	granted, retuneDistance int
}

// sessionFold is one session's fold.
type sessionFold struct {
	SessionView
	kind   string
	spec   *SpecRecord // the queued record's replayable spec (persisting fleets)
	queued bool        // the queued record was seen

	// end is the type of the terminal record that closed the session, ""
	// while it is open; cancelled marks an end that is a drain's
	// cancellation. inFlight: admitted, and the attempt has not ended.
	end       string
	cancelled bool
	inFlight  bool

	// admitted and ended are the Wall stamps of the attempt's admission and
	// of the terminal record.
	admitted, ended float64

	// first is the Seq of the session's first record, idx its place in
	// fold.order.
	first, idx int
}

// apply folds one of the session's records in. The transition rule for
// "who is finished" is the last-writer-wins reading of the records: done,
// degraded and failed close the session; a scheduled retry or re-tune
// re-opens it, so a failure the retry lane takes back is never an outcome.
//
// A submitter's "queued" record can land after its own session's first
// dispatch records (DESIGN.md §11.4), so it names the state only of a
// session no record has put in one yet, and never lowers the attempt: status
// never moves backwards.
func (sf *sessionFold) apply(e Event) {
	if e.State != "" && (e.Type != "queued" || sf.State == "") {
		sf.State = e.State
	}
	switch e.Type {
	case "queued":
		sf.queued, sf.spec, sf.kind = true, e.Spec, e.Kind
		sf.Attempt = max(sf.Attempt, e.Attempt)
	case "admitted":
		// A dispatch supersedes the previous attempt's error.
		sf.inFlight, sf.Attempt, sf.admitted, sf.Err = true, e.Attempt, e.Wall, ""
	case "store-hit", "store-translated", "store-miss":
		sf.Warm, sf.Translated = e.Warm, e.Translated
	case "store-bypass":
		// A live re-tune pass never consults the store: the session keeps
		// the seeding it activated with.
		if e.Reason != "retune" {
			sf.Warm, sf.Translated = false, false
		}
	case "retry-scheduled":
		// A re-tune pass the retry lane takes back has ended (one that
		// rolled back is retried without a session-failed first): the retry
		// is a cold re-profile, not a re-tune.
		sf.Attempt, sf.Retuning = e.Attempt, false
		sf.reopen()
	case "retune-scheduled":
		// Never the retry lane: the attempt is untouched.
		sf.Retuning, sf.retuneDistance = true, e.Distance
		sf.granted = max(sf.granted, e.Retune)
		sf.reopen()
	case "retune-complete":
		sf.Retuning = false
		sf.Retunes = max(sf.Retunes, e.Retune)
	case "session-done", "session-failed", "session-degraded":
		sf.end, sf.ended, sf.inFlight = e.Type, e.Wall, false
		sf.cancelled = e.Err == ErrCanceled.Error()
		sf.Retuning = sf.Retuning && sf.cancelled
		sf.Attempt, sf.Err = e.Attempt, e.Err
		if e.Type != "session-failed" {
			sf.Warm, sf.Translated = e.Warm, e.Translated
		}
		if e.Report != nil {
			sf.Report = e.Report
		}
	}
}

func (sf *sessionFold) reopen() {
	sf.end, sf.cancelled, sf.inFlight = "", false, false
}

// pending is recovery's reading: the session is owed a re-admission. A
// drain's cancellation never ran, so it is interrupted, not finished.
func (sf *sessionFold) pending() bool { return sf.end == "" || sf.cancelled }

// wall is the session's wall time: its terminal record's stamp minus its
// attempt's admission — 0 for an attempt that never ran (parked by a
// breaker, degraded while queued, cancelled).
func (sf *sessionFold) wall() float64 {
	if sf.end == "session-degraded" || sf.cancelled {
		return 0
	}
	return sf.ended - sf.admitted
}

// fold is the journal's reading of itself: every session's fold, plus the
// records Snapshot counts fleet-wide without their being a session outcome.
type fold struct {
	sessions map[int]*sessionFold
	// order lists the sessions by their first record. Every session before
	// order[open] is closed, so an epoch roll finds the oldest pending
	// session's first record without walking the whole history.
	order    []*sessionFold
	open     int
	bypasses map[string]int // store-bypass records by reason
	drift    int            // drift-detected records
	windows  int            // their detection windows, summed
	retuned  int            // retune-complete records
	panics   int            // handler-panic records
}

func (fd *fold) apply(e Event) {
	switch e.Type {
	case "store-bypass":
		if fd.bypasses == nil {
			fd.bypasses = make(map[string]int)
		}
		fd.bypasses[e.Reason]++
	case "drift-detected":
		fd.drift++
		fd.windows += e.Windows
	case "retune-complete":
		fd.retuned++
	case "handler-panic":
		fd.panics++
	}
	if e.Session < 0 {
		return
	}
	sf := fd.sessions[e.Session]
	if sf == nil {
		if fd.sessions == nil {
			fd.sessions = make(map[int]*sessionFold)
		}
		sf = &sessionFold{first: e.Seq, idx: len(fd.order)}
		fd.sessions[e.Session] = sf
		fd.order = append(fd.order, sf)
	}
	sf.apply(e)
	if sf.idx < fd.open && sf.pending() {
		fd.open = sf.idx // re-opened: a retry, a re-tune, a cancellation
	}
}

// oldestPending is the Seq of the first record of the oldest session still
// pending, or -1 when none is.
func (fd *fold) oldestPending() int {
	for fd.open < len(fd.order) && !fd.order[fd.open].pending() {
		fd.open++
	}
	if fd.open == len(fd.order) {
		return -1
	}
	return fd.order[fd.open].first
}

// tally fills the journal's half of a Snapshot: sessions submitted (one
// queued record each) and finished, their outcomes, kinds, wall times and
// search probes per seeding tier, and the fleet-wide drift, bypass and
// panic records. Finished means closed by a terminal record nothing
// re-opened; a cancellation counts as failed here although recovery
// re-admits it. elapsed is the journal's age in seconds.
func (fd *fold) tally(s *Snapshot, elapsed float64) {
	var walls []float64
	var cold, warm, translated []int
	outcomes := make(map[string]int)
	kinds := make(map[string]int)
	for _, sf := range fd.sessions {
		if sf.queued {
			s.Submitted++
		}
		if sf.end == "" {
			continue
		}
		s.Completed++
		walls = append(walls, sf.wall())
		switch sf.end {
		case "session-failed":
			s.Failed++
		case "session-degraded":
			s.Degraded++
		default:
			kinds[sf.kind]++
			rep := sf.Report
			if rep == nil {
				continue // a reference-scheme job: no controller outcome
			}
			outcomes[rep.Outcome.String()]++
			switch n := rep.Costs.PDEdits; {
			case n == 0:
			case sf.Warm:
				warm = append(warm, n)
			case sf.Translated:
				translated = append(translated, n)
			default:
				cold = append(cold, n)
			}
		}
	}
	s.Tuned, s.RolledBack = outcomes["tuned"], outcomes["rolled-back"]
	s.NotActivated, s.TargetExited = outcomes["not-activated"], outcomes["target-exited"]
	optimized := 0
	for _, n := range outcomes {
		optimized += n
	}
	if optimized > 0 {
		s.ActivationRate = float64(s.Tuned+s.RolledBack) / float64(optimized)
	}
	if n := s.Tuned + s.RolledBack; n > 0 {
		s.RollbackRate = float64(s.RolledBack) / float64(n)
	}
	if len(kinds) > 0 {
		s.Kinds = kinds
	}
	if elapsed > 0 {
		s.SessionsPerSec = float64(s.Completed) / elapsed
	}
	sort.Float64s(walls)
	s.P50Wall, s.P95Wall = percentile(walls, 0.50), percentile(walls, 0.95)
	s.ColdSessions, s.ColdProbesMean = len(cold), meanInt(cold)
	s.WarmSessions, s.WarmProbesMean = len(warm), meanInt(warm)
	s.TranslatedSessions, s.TranslatedProbesMean = len(translated), meanInt(translated)

	s.DriftDetected, s.RetunesScheduled, s.RetunesCompleted = fd.drift, fd.drift, fd.retuned
	if fd.drift > 0 {
		s.DetectWindowsMean = float64(fd.windows) / float64(fd.drift)
	}
	if len(fd.bypasses) > 0 {
		s.StoreBypasses = make(map[string]int, len(fd.bypasses))
		for k, n := range fd.bypasses {
			s.StoreBypasses[k] = n
		}
	}
	s.HandlerPanics = fd.panics
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func meanInt(xs []int) float64 {
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(max(len(xs), 1))
}
