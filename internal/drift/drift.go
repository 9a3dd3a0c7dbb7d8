// Package drift is the post-activation watchdog's brain: an EWMA
// degradation detector with hysteresis over the miss-site retirement rate
// (perf.Window.Rate) that a tuned session keeps sampling after the
// controller detaches. RPG²'s titular claim is robustness over time —
// a distance that was right for the profiled phase can silently go wrong
// when the workload's phase shifts — and the fleet's answer is this
// detector: compare the sampled rate against the rate recorded at
// activation, smooth it so one noisy window cannot trip anything, and
// demand several consecutive degraded readings before flagging drift.
//
// The package is deliberately free of fleet types: it consumes rates and
// produces a boolean. The fleet decides what a firing means (re-admission
// into the re-tune lane); experiments and tests can drive a Detector
// directly.
package drift

// The detector's fixed smoothing and trip level.
const (
	// alpha is the EWMA smoothing factor: the weight of the newest sample.
	// Higher alpha reacts faster and trusts single windows more.
	alpha = 0.4
	// threshold is the relative degradation versus the reference rate
	// beyond which a sample counts as degraded: fire when the smoothed
	// rate falls below 75% of the activation rate.
	threshold = 0.25
)

// Config tunes a Detector. The zero value is not useful on its own —
// call Defaults (or let the fleet fill it) before use.
type Config struct {
	// Hysteresis is how many consecutive degraded samples arm a firing
	// (default 3). One good sample resets the count: sustained
	// degradation fires, a transient dip never does.
	Hysteresis int `json:"hysteresis,omitempty"`
}

// Defaults fills unset fields with the package defaults.
func (c Config) Defaults() Config {
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	return c
}

// Detector tracks one session's post-activation rate. Not safe for
// concurrent use; the owning watchdog loop is single-threaded.
type Detector struct {
	cfg      Config
	ref      float64 // the activation-time reference rate
	ewma     float64
	degraded int // consecutive degraded samples
	samples  int // total samples observed
	fired    int // total firings (Observe returning true)
}

// New builds a detector against the given activation reference rate. The
// EWMA starts at the reference: the session was just measured there.
func New(cfg Config, refRate float64) *Detector {
	return &Detector{cfg: cfg.Defaults(), ref: refRate, ewma: refRate}
}

// Observe feeds one sampled rate and reports whether sustained
// degradation just fired. After a firing the consecutive count resets, so
// the same degradation episode does not re-fire every subsequent sample —
// the caller is expected to act (re-tune) and Rebase.
func (d *Detector) Observe(rate float64) bool {
	d.samples++
	d.ewma = alpha*rate + (1-alpha)*d.ewma
	if d.ewma < d.ref*(1-threshold) {
		d.degraded++
		if d.degraded >= d.cfg.Hysteresis {
			d.degraded = 0
			d.fired++
			return true
		}
		return false
	}
	d.degraded = 0
	return false
}

// Rebase re-arms the detector against a new reference rate — the rate a
// completed re-tune achieved. Without a rebase, a phase whose best
// achievable rate is below the old reference would re-fire forever.
func (d *Detector) Rebase(refRate float64) {
	d.ref = refRate
	d.ewma = refRate
	d.degraded = 0
}

// Ref returns the current reference rate.
func (d *Detector) Ref() float64 { return d.ref }

// EWMA returns the current smoothed rate.
func (d *Detector) EWMA() float64 { return d.ewma }

// Samples returns how many rates have been observed.
func (d *Detector) Samples() int { return d.samples }

// State is a Detector's JSON-safe persistable posture: what a fleet WAL
// snapshot carries so Recover can resume an armed watchdog.
type State struct {
	Ref      float64 `json:"ref"`
	EWMA     float64 `json:"ewma"`
	Degraded int     `json:"degraded,omitempty"`
	Samples  int     `json:"samples,omitempty"`
	Fired    int     `json:"fired,omitempty"`
}

// Export captures the detector's posture.
func (d *Detector) Export() State {
	return State{Ref: d.ref, EWMA: d.ewma, Degraded: d.degraded, Samples: d.samples, Fired: d.fired}
}

// Resume rebuilds a detector from an exported posture.
func Resume(cfg Config, st State) *Detector {
	return &Detector{
		cfg: cfg.Defaults(), ref: st.Ref, ewma: st.EWMA,
		degraded: st.Degraded, samples: st.Samples, fired: st.Fired,
	}
}
