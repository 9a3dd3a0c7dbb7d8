package rpg2

import (
	"rpg2/internal/perf"
	"rpg2/internal/proc"
)

// measurement pairs a distance with the observed value of the tuning metric
// (miss-site work rate by default; raw IPC or negated MPKI under the
// ablations).
type measurement struct {
	d      int
	ipc    float64
	rate   float64
	metric float64
}

// setDistance edits the prefetch-distance immediates of every kernel in the
// live code through the libpg2 agent: pause, rewrite the few bytes at each
// patch point, resume (§3.4). All sites share the same distance, mirroring
// RPG²'s symmetric-distance policy (§3.4, Figure 13 discussion).
func (c *Controller) setDistance(tr *proc.Tracer, agent *proc.LibPG2, ins *insertion, d int) error {
	tr.Stop()
	for _, pp := range ins.rw.PatchPoints {
		pc := ins.f1Entry + pp.Offset
		in, err := tr.PeekText(pc)
		if err != nil {
			return err
		}
		if err := agent.PokeText(pc, pp.Apply(in, d)); err != nil {
			return err
		}
	}
	tr.Resume()
	return nil
}

// measureAt installs distance d, lets the target warm up, and measures one
// window of the tuning metric. Results are cached in the report.
func (c *Controller) measureAt(tr *proc.Tracer, agent *proc.LibPG2, ins *insertion, r *Report,
	record func(string, float64, float64), d int) (measurement, error) {

	if m, ok := r.explored[d]; ok {
		return m, nil
	}
	p := tr.Process()
	stolen0 := p.StolenCycles()
	if err := c.setDistance(tr, agent, ins, d); err != nil {
		return measurement{}, err
	}
	editCost := p.StolenCycles() - stolen0
	r.Costs.PDEditSeconds += c.mach.ToSeconds(editCost) // averaged later
	r.Costs.PDEdits++

	p.Run(c.mach.Seconds(warmupSeconds))
	w := perf.MeasureWatch(p, c.watch, c.mach.Seconds(windowSeconds), c.rng, c.mach.IPCNoise)
	record("tune", w.IPC, w.Rate)
	m := measurement{d: d, ipc: w.IPC, rate: w.Rate}
	switch {
	case c.cfg.UseMPKIMetric:
		m.metric = -w.MPKI
	case c.cfg.RawIPCMetric:
		m.metric = w.IPC
	default:
		m.metric = w.Rate
	}
	r.explored[d] = m
	r.Explored[d] = m.metric
	return m, nil
}

// clampDistance keeps distances within [1, MaxDistance].
func (c *Controller) clampDistance(d int) int {
	if d < 1 {
		return 1
	}
	if d > MaxDistance {
		return MaxDistance
	}
	return d
}

// tune runs the prefetch-distance search (§3.4). It has three stages:
//
//	Stage 1: from the random starting distance r, measure r-5, r, r+5 and
//	         take the gradient to pick a direction.
//	Stage 2: step in that direction with doubling jump sizes while the
//	         metric keeps improving; stepping outside [1, 200] ends the
//	         search with the best measurement so far.
//	Stage 3: binary-search the interval bracketed by the last two probes
//	         for a local optimum.
//
// Under the LinearSearch ablation it instead scans a fixed stride across
// the range. It returns the best measurement observed.
func (c *Controller) tune(tr *proc.Tracer, agent *proc.LibPG2, ins *insertion, r *Report,
	record func(string, float64, float64)) (measurement, error) {

	switch {
	case c.cfg.UseMPKIMetric:
		// No baseline MPKI is captured, so rollback effectively never
		// fires under this ablation. (The paper found MPKI to be an
		// unusable tuning metric, §4.4; this ablation demonstrates why.)
		r.baselineMetric = -1e18
	case c.cfg.RawIPCMetric:
		r.baselineMetric = r.BaselineIPC
	default:
		r.baselineMetric = r.BaselineRate
	}
	r.explored = make(map[int]measurement)

	best := measurement{d: 0, metric: -1e30}
	consider := func(m measurement) {
		if m.metric > best.metric {
			best = m
		}
	}
	measure := func(d int) (measurement, error) {
		m, err := c.measureAt(tr, agent, ins, r, record, d)
		if err == nil {
			consider(m)
		}
		return m, err
	}
	alive := func() bool { return tr.Process().State() == proc.Running }

	if c.cfg.LinearSearch {
		for d := 1; d <= maxInitialDistance && alive(); d += 7 {
			if _, err := measure(d); err != nil {
				return best, err
			}
		}
		c.finishCosts(r)
		return best, nil
	}

	// ---- Stage 1: gradient at r-span, r, r+span ---------------------
	// Cold sessions probe ±5 around the random start (§3.4). A session
	// warm-started from a cached tuned distance probes a narrow ±2 span
	// instead, and stops after just these three measurements when the
	// seed is still a local optimum — the profile store's fast path. A
	// *translated* seed keeps the cold span and skips the fast path: the
	// scaled distance is a cross-machine hypothesis, not a local optimum
	// observed here, so it must earn its keep through the full gradient.
	seeded := c.cfg.SeedDistance > 0 && !c.cfg.SeedTranslated
	r0 := r.InitialDistance
	span := 5
	if seeded {
		span = 2
	}
	// Clamping can alias an endpoint onto the start itself (a seed of 1
	// with the warm ±2 span yields lo == r0; a seed at MaxDistance yields
	// hi == r0). An aliased endpoint reuses the start's measurement
	// instead of issuing a duplicate probe.
	lo := c.clampDistance(r0 - span)
	hi := c.clampDistance(r0 + span)
	mLo, err := measure(lo)
	if err != nil || !alive() {
		c.finishCosts(r)
		return best, err
	}
	mMid := mLo
	if r0 != lo {
		mMid, err = measure(r0)
		if err != nil || !alive() {
			c.finishCosts(r)
			return best, err
		}
	}
	mHi := mMid
	if hi != r0 {
		mHi, err = measure(hi)
		if err != nil || !alive() {
			c.finishCosts(r)
			return best, err
		}
	}
	if seeded {
		// Accept the seed as a local optimum if neither neighbour beats
		// it by more than the measurement noise — otherwise a ±1σ
		// fluctuation sends a warm session on a full walk and the
		// store's probe savings evaporate.
		guard := 1 - 2*c.mach.IPCNoise
		if mMid.metric >= guard*mLo.metric && mMid.metric >= guard*mHi.metric {
			c.finishCosts(r)
			return best, nil
		}
	}
	dir := 1
	if mLo.metric > mHi.metric {
		dir = -1
	}

	// ---- Stage 2: doubling jumps in the chosen direction ------------
	prev := r.explored[r0]
	jump := span
	bracketLo, bracketHi := -1, -1
	for alive() {
		next := prev.d + dir*jump
		if next < 1 || next > MaxDistance {
			// Out of range: terminate with the best so far (§3.4).
			c.finishCosts(r)
			return best, nil
		}
		m, err := measure(next)
		if err != nil {
			c.finishCosts(r)
			return best, err
		}
		if m.metric < prev.metric {
			// First decrease: bracket [prev, m] for stage 3.
			bracketLo, bracketHi = prev.d, m.d
			if bracketLo > bracketHi {
				bracketLo, bracketHi = bracketHi, bracketLo
			}
			break
		}
		prev = m
		jump *= 2
	}
	if bracketLo < 0 || !alive() {
		c.finishCosts(r)
		return best, nil
	}

	// ---- Stage 3: binary search inside the bracket ------------------
	loMetric := r.explored[bracketLo].metric
	hiMetric := r.explored[bracketHi].metric
	for bracketHi-bracketLo > 2 && alive() {
		mid := (bracketLo + bracketHi) / 2
		m, err := measure(mid)
		if err != nil {
			c.finishCosts(r)
			return best, err
		}
		if loMetric > hiMetric {
			bracketHi, hiMetric = mid, m.metric
		} else {
			bracketLo, loMetric = mid, m.metric
		}
	}
	c.finishCosts(r)
	return best, nil
}

// finishCosts converts the accumulated edit cost into a per-edit mean.
func (c *Controller) finishCosts(r *Report) {
	if r.Costs.PDEdits > 0 {
		r.Costs.PDEditSeconds /= float64(r.Costs.PDEdits)
	}
}
