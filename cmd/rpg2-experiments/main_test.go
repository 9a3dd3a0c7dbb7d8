package main

import (
	"strings"
	"testing"

	"rpg2"
)

func names(as []rpg2.Artefact) string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return strings.Join(out, ",")
}

func TestSelection(t *testing.T) {
	all := names(rpg2.Artefacts())
	cases := []struct {
		name string
		q    request
		want string // selected artefact names, in run order
		err  string // or a substring of the error
	}{
		{name: "all is the catalogue in order", q: request{all: true}, want: all},
		{name: "all wins over a figure", q: request{all: true, fig: 7}, want: all},
		{name: "one figure", q: request{fig: 7}, want: "figure 7"},
		{name: "one table", q: request{table: 3}, want: "table 3"},
		{name: "figure, table, studies in that order",
			q: request{drift: true, translate: true, table: 1, fig: 13}, want: "figure 13,table 1,transplant,drift"},
		{name: "figure 4 is a diagram", q: request{fig: 4}, err: "no figure 4 (figures 4-6 are design diagrams, not results)"},
		{name: "figure 5 is a diagram", q: request{fig: 5}, err: "design diagrams, not results"},
		{name: "figure 6 is a diagram", q: request{fig: 6}, err: "design diagrams, not results"},
		{name: "no figure 14", q: request{fig: 14}, err: "no figure 14"},
		{name: "no table 4", q: request{table: 4}, err: "no table 4"},
		{name: "a bad table stops a good figure", q: request{fig: 7, table: 9}, err: "no table 9"},
		{name: "nothing asked", q: request{}, err: "nothing to do"},
		{name: "bench alone is nothing", q: request{benches: []string{"pr"}}, err: "nothing to do"},

		{name: "known benches", q: request{fig: 7, benches: []string{"pr", "is"}}, want: "figure 7"},
		{name: "mistyped bench, figure", q: request{fig: 7, benches: []string{"nosuch"}}, err: `unknown benchmark "nosuch"`},
		{name: "mistyped bench, table", q: request{table: 3, benches: []string{"pr", "nosuch"}}, err: `unknown benchmark "nosuch"`},
		{name: "mistyped bench, all", q: request{all: true, benches: []string{"nosuch"}}, err: "have [pr bfs sssp bc is cg randacc] plus drift [bc-drift is-drift chase-drift]"},
		{name: "drift with a drifting bench", q: request{drift: true, benches: []string{"bc-drift"}}, want: "drift"},
		{name: "drift with a mixed subset", q: request{drift: true, translate: true, benches: []string{"pr", "bc-drift"}}, want: "transplant,drift"},
		{name: "drift with no drifting bench", q: request{drift: true, benches: []string{"pr"}}, err: "-drift runs the drifting benchmarks"},
		{name: "all with a stock subset still runs drift whole", q: request{all: true, benches: []string{"pr"}}, want: all},

		{name: "quick", q: request{quick: true, fig: 1}, want: "figure 1"},
		{name: "smoke", q: request{smoke: true, fig: 1}, want: "figure 1"},
		{name: "quick and smoke", q: request{quick: true, smoke: true, fig: 1}, err: "-quick and -smoke"},
	}
	for _, c := range cases {
		got, err := selection(c.q)
		switch {
		case c.err != "":
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.err)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		case names(got) != c.want:
			t.Errorf("%s: selected %s, want %s", c.name, names(got), c.want)
		}
	}
}

// Every number -fig and -table accept selects exactly the entry carrying it.
func TestSelectionByNumber(t *testing.T) {
	for _, a := range rpg2.Artefacts() {
		if a.Fig == 0 && a.Table == 0 {
			continue
		}
		got, err := selection(request{fig: a.Fig, table: a.Table})
		if err != nil || len(got) != 1 || got[0].Name != a.Name {
			t.Errorf("-fig %d -table %d selected %s (%v), want %s", a.Fig, a.Table, names(got), err, a.Name)
		}
	}
}
