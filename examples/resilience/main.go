// Example resilience exercises the fleet's admission-control layer under a
// deterministic 25% fault injection rate: the retry lane re-admits failed
// sessions with exponential backoff on a virtual clock, and a circuit
// breaker parks sessions on a pair that keeps rolling back.
package main

import (
	"fmt"
	"log"

	"rpg2"
)

func main() {
	m := rpg2.CascadeLake()
	f := rpg2.NewFleet(rpg2.FleetConfig{
		Machine: m,
		Workers: 4,
		// A quarter of controller stages fail, decided purely by hash of
		// (injector seed, session seed, attempt, stage) — rerun this
		// program and the same sessions fail at the same places.
		Faults: rpg2.NewFaultInjector(rpg2.FaultConfig{Seed: 42, Rate: 0.25}),
		// Failed and rolled-back sessions retry up to twice, waiting
		// 0.5 s then 1 s of virtual time; retries run cold with a fresh
		// derived seed.
		MaxRetries: 2,
		// Four consecutive rollbacks on one pair open its breaker.
		BreakerThreshold: 4,
	})
	defer f.Close()

	var specs []rpg2.SessionSpec
	benches := []string{"is", "cg", "randacc"}
	for i := 0; i < 24; i++ {
		specs = append(specs, rpg2.SessionSpec{
			Bench: benches[i%len(benches)],
			Seed:  int64(i + 1),
		})
	}
	sessions, err := f.Run(specs)
	if err != nil {
		log.Fatal(err)
	}

	recovered := 0
	for _, s := range sessions {
		switch {
		case s.State() == rpg2.SessionFailed:
			kind := "organic"
			if rpg2.IsInjectedFault(s.Err()) {
				kind = "injected"
			}
			fmt.Printf("session %2d %-8s failed after %d retries (%s): %v\n",
				s.ID, s.Spec.Bench, s.Attempt(), kind, s.Err())
		case s.Attempt() > 0:
			recovered++
			fmt.Printf("session %2d %-8s recovered on attempt %d: %v\n",
				s.ID, s.Spec.Bench, s.Attempt(), s.Report().Outcome)
		}
	}
	fmt.Printf("\n%d sessions recovered by the retry lane\n\n", recovered)
	fmt.Print(f.Snapshot().Render())
}
