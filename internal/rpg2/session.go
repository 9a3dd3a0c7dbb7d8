package rpg2

import (
	"fmt"

	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/mem"
	"rpg2/internal/perf"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// Session bundles a launched target process with the work-rate watch every
// measured run needs: one launch, one watch over the workload's miss-site
// PCs, then any mix of Optimize / MeasureToBudget / TailTimeline. It is the
// single construction path the fleet and the experiments harness share, and
// it accepts a pre-built (possibly cached) workload rather than building
// its own.
type Session struct {
	mach  machine.Machine
	p     *proc.Process
	watch *cpu.Watch
}

// NewSession launches a pre-built workload on a machine and attaches a
// work watch at its primary miss site.
func NewSession(m machine.Machine, w *workloads.Workload) (*Session, error) {
	return NewSessionBin(m, w.Bin, w.Setup, []int{w.WorkPC})
}

// NewSessionBin launches an arbitrary binary (e.g. a statically prefetched
// rewrite) with the given data setup, watching the given PCs.
func NewSessionBin(m machine.Machine, bin *isa.Binary, setup func(*mem.AddrSpace, *[isa.NumRegs]uint64), watchPCs []int) (*Session, error) {
	p, err := m.Launch(bin, setup)
	if err != nil {
		return nil, err
	}
	return &Session{mach: m, p: p, watch: perf.AttachWatch(p, watchPCs)}, nil
}

// Optimize runs the four-phase controller against the session's target.
func (s *Session) Optimize(cfg Config) (*Report, error) {
	return New(s.mach, cfg).Optimize(s.p)
}

// Measurement is an end-of-run observation: total work plus the trailing
// window's derived metrics.
type Measurement struct {
	// Work is the total worksite retirements over the whole run.
	Work uint64 `json:"work"`
	// IPC, Rate, and MPKI are from the trailing measurement window.
	IPC  float64 `json:"ipc"`
	Rate float64 `json:"rate"`
	MPKI float64 `json:"mpki"`
	// InstrPerWork is instructions retired per work item in the tail
	// window (Figure 12's overhead metric).
	InstrPerWork float64 `json:"instr_per_work"`
}

// MeasureToBudget drives the target until its clock reaches
// runSeconds-tailSeconds, then measures a tailSeconds window, returning
// cumulative work and tail metrics. A crash is an error.
func (s *Session) MeasureToBudget(runSeconds, tailSeconds float64) (Measurement, error) {
	budget := s.mach.Seconds(runSeconds)
	tail := s.mach.Seconds(tailSeconds)
	if tail < budget && s.p.Clock() < budget-tail {
		s.p.Run(budget - tail - s.p.Clock())
	}
	win := perf.MeasureWatch(s.p, s.watch, tail, nil, 0)
	if s.p.State() == proc.Crashed {
		f := s.p.FaultedThread()
		return Measurement{}, fmt.Errorf("rpg2: target crashed: %v at pc %d", f.Thread.Fault, f.Thread.PC)
	}
	m := Measurement{Work: s.watch.Count, IPC: win.IPC, Rate: win.Rate, MPKI: win.MPKI}
	if win.Work > 0 {
		m.InstrPerWork = float64(win.Instructions) / float64(win.Work)
	}
	return m, nil
}

// RunOut drives the target to the runSeconds clock mark without measuring.
func (s *Session) RunOut(runSeconds float64) {
	if budget := s.mach.Seconds(runSeconds); s.p.Clock() < budget {
		s.p.Run(budget - s.p.Clock())
	}
}

// TailTimeline measures `windows` consecutive windows of windowSeconds
// each, returning post-detach timeline points starting at base seconds
// (Figure 10's "after" region).
func (s *Session) TailTimeline(windows int, windowSeconds, base float64) []TimelinePoint {
	pts := make([]TimelinePoint, 0, windows)
	for i := 0; i < windows; i++ {
		win := perf.MeasureWatch(s.p, s.watch, s.mach.Seconds(windowSeconds), nil, 0)
		pts = append(pts, TimelinePoint{
			Seconds: base + float64(i+1)*windowSeconds,
			IPC:     win.IPC,
			Rate:    win.Rate,
			Phase:   "after",
		})
	}
	return pts
}
