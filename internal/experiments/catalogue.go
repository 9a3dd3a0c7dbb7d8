package experiments

import (
	"io"
	"slices"

	"rpg2/internal/workloads"
)

// Renderer is what every result type is: something that prints its table or
// figure.
type Renderer interface{ Render(io.Writer) }

// Artefact is one table, figure or study of the evaluation. Fig or Table is
// the number -fig or -table selects it by; both are zero for the two studies
// the paper does not have, which go by Name alone.
type Artefact struct {
	Name       string
	Fig, Table int
	// Run regenerates the artefact. benches is the caller's benchmark
	// subset (nil: the artefact's own default list); artefacts that have
	// no subset ignore it.
	Run func(r *Runner, benches []string) (Renderer, error)
}

// Artefacts is the one list of what this package regenerates, in the order
// `rpg2-experiments -all` prints it. Figures 4-6 of the paper are design
// diagrams, not results. The command, the golden test and CI all walk this
// list; nothing else names an individual artefact.
func Artefacts() []Artefact {
	return []Artefact{
		{Name: "table 1", Table: 1, Run: fixed((*Runner).Table1)},
		{Name: "table 2", Table: 2, Run: fixed((*Runner).Table2)},
		{Name: "table 3", Table: 3, Run: subset((*Runner).Table3)},
		{Name: "figure 1", Fig: 1, Run: fixed((*Runner).Fig1)},
		{Name: "figure 2", Fig: 2, Run: fixed((*Runner).Fig2)},
		{Name: "figure 3", Fig: 3, Run: fixed((*Runner).Fig3)},
		{Name: "figure 7", Fig: 7, Run: subset((*Runner).Fig7)},
		{Name: "figure 8", Fig: 8, Run: subset((*Runner).Fig8)},
		{Name: "figure 9", Fig: 9, Run: fixed((*Runner).Fig9)},
		{Name: "figure 10", Fig: 10, Run: fixed((*Runner).Fig10)},
		{Name: "figure 11", Fig: 11, Run: fixed((*Runner).Fig11)},
		{Name: "figure 12", Fig: 12, Run: fixed((*Runner).Fig12)},
		{Name: "figure 13", Fig: 13, Run: fixed((*Runner).Fig13)},
		{Name: "transplant", Run: subset((*Runner).TableTransplant)},
		// The drift study takes the drifting benchmark catalogue, not the
		// stock one: only the drifting names of the subset apply to it.
		{Name: "drift", Run: func(r *Runner, benches []string) (Renderer, error) {
			var drifting []string
			for _, b := range benches {
				if slices.Contains(workloads.DriftNames(), b) {
					drifting = append(drifting, b)
				}
			}
			return r.TableDrift(drifting)
		}},
	}
}

// fixed adapts an artefact with no benchmark subset to Artefact.Run.
func fixed[T Renderer](run func(*Runner) (T, error)) func(*Runner, []string) (Renderer, error) {
	return func(r *Runner, _ []string) (Renderer, error) { return run(r) }
}

// subset adapts an artefact that takes a benchmark subset to Artefact.Run.
func subset[T Renderer](run func(*Runner, []string) (T, error)) func(*Runner, []string) (Renderer, error) {
	return func(r *Runner, benches []string) (Renderer, error) { return run(r, benches) }
}
