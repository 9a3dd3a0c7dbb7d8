package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rpg2/internal/machine"
	"rpg2/internal/proc"
	"rpg2/internal/workloads"
)

// The architectural oracle. A change that speeds the simulator up must
// leave what the simulated programs compute, and what the controller
// decides, bit-identical; golden.json pins both. Regenerate it only in a
// PR that changes the benchmark itself: go run ./bench -update-golden.
//
//go:embed golden.json
var goldenJSON []byte

// kernelGolden is the final architectural state of one kernel run to
// completion with a finite repeat count.
type kernelGolden struct {
	Digest       string `json:"digest"` // FNV-1a 64 of registers, then every data segment
	Instructions uint64 `json:"instructions"`
}

// sessionGolden is what the controller did to one fleet-cold session.
type sessionGolden struct {
	Bench    string `json:"bench"`
	Input    string `json:"input,omitempty"`
	Seed     int64  `json:"seed"`
	Outcome  string `json:"outcome"`
	Distance int    `json:"distance"`
	Probes   int    `json:"probes"`
}

// sessionKey is what a cold session's ending depends on.
type sessionKey struct {
	bench, input string
	seed         int64
}

func (g sessionGolden) key() sessionKey { return sessionKey{g.Bench, g.Input, g.Seed} }

type goldenFile struct {
	Kernels   map[string]kernelGolden `json:"kernels"`
	FleetCold []sessionGolden         `json:"fleet_cold"`
}

// sessions indexes the fleet-cold endings by spec.
func (g *goldenFile) sessions() map[sessionKey]sessionGolden {
	m := make(map[sessionKey]sessionGolden, len(g.FleetCold))
	for _, s := range g.FleetCold {
		m[s.key()] = s
	}
	return m
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// goldenRepeats is the finite driver-loop count of the oracle run.
const goldenRepeats = 1

// oracleBudgetSeconds bounds the oracle run in simulated seconds; the
// longest kernel (sssp/gowalla-like) exits after about 230.
const oracleBudgetSeconds = 2000

// digestKernel runs the kernel to Exited and digests its final state.
func digestKernel(m machine.Machine, id kernelID) (kernelGolden, error) {
	w, err := workloads.Build(id.bench, id.input, goldenRepeats)
	if err != nil {
		return kernelGolden{}, err
	}
	p, err := m.Launch(w.Bin, w.Setup)
	if err != nil {
		return kernelGolden{}, err
	}
	for p.State() == proc.Running && m.ToSeconds(p.Clock()) < oracleBudgetSeconds {
		p.Run(m.Seconds(10))
	}
	if p.State() != proc.Exited {
		return kernelGolden{}, fmt.Errorf("%v is %v, want exited", id, p.State())
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime64
			v >>= 8
		}
	}
	for _, r := range p.MainThread().Thread.Regs {
		word(r)
	}
	for _, seg := range p.AS.Segments() {
		word(seg.Base)
		for _, v := range seg.Data {
			word(v)
		}
	}
	return kernelGolden{Digest: fmt.Sprintf("%016x", h), Instructions: p.Counters().Instructions}, nil
}

// checkKernels verifies each kernel against the oracle; a mismatch is a
// failed operation. The quick self-test checks only the first: running
// sssp/gowalla-like to completion alone takes seconds.
func (r *run) checkKernels(m machine.Machine, ids []kernelID) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	if r.cfg.quick {
		ids = ids[:1]
	}
	for _, id := range ids {
		r.op(1)
		got, err := digestKernel(m, id)
		want, known := g.Kernels[id.slug()]
		switch {
		case err != nil:
			r.fail("oracle %v: %v", id, err)
		case !known:
			r.fail("oracle %v: no golden entry", id)
		case got != want:
			r.fail("oracle %v: got %+v, golden %+v", id, got, want)
		}
	}
	return nil
}

// updateGolden regenerates golden.json beside this file's package, from
// the repository root.
func updateGolden(clients int) error {
	m := machine.CascadeLake()
	g := goldenFile{Kernels: map[string]kernelGolden{}}
	for _, id := range allKernels() {
		k, err := digestKernel(m, id)
		if err != nil {
			return err
		}
		g.Kernels[id.slug()] = k
	}
	r := newRun(config{workload: "fleet-cold", seed: 1, clients: clients})
	got, err := r.goldenRound()
	if err != nil {
		return err
	}
	sort.Slice(got, func(i, j int) bool {
		a, b := got[i].key(), got[j].key()
		if a.bench != b.bench {
			return a.bench < b.bench
		}
		if a.input != b.input {
			return a.input < b.input
		}
		return a.seed < b.seed
	})
	g.FleetCold = got
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join("bench", "golden.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}
