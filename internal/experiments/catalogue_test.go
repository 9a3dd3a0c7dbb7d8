package experiments_test

import (
	"reflect"
	"testing"

	"rpg2/internal/experiments"
)

// The catalogue is the paper's evaluation and nothing else: tables 1-3,
// the ten result figures (4-6 are design diagrams), then the two studies,
// each selectable one way only.
func TestArtefactsCatalogue(t *testing.T) {
	var names []string
	seen := make(map[string]bool)
	var tables, figs, studies []int
	for i, a := range experiments.Artefacts() {
		if a.Name == "" || seen[a.Name] {
			t.Errorf("entry %d: name %q is empty or repeated", i, a.Name)
		}
		seen[a.Name] = true
		names = append(names, a.Name)
		if a.Run == nil {
			t.Errorf("%s has no Run", a.Name)
		}
		switch {
		case a.Table != 0 && a.Fig == 0:
			tables = append(tables, a.Table)
		case a.Fig != 0 && a.Table == 0:
			figs = append(figs, a.Fig)
		case a.Fig == 0 && a.Table == 0:
			studies = append(studies, i)
		default:
			t.Errorf("%s is both table %d and figure %d", a.Name, a.Table, a.Fig)
		}
	}
	// In order, which also makes every number map to exactly one entry.
	if want := []int{1, 2, 3}; !reflect.DeepEqual(tables, want) {
		t.Errorf("tables = %v, want %v", tables, want)
	}
	if want := []int{1, 2, 3, 7, 8, 9, 10, 11, 12, 13}; !reflect.DeepEqual(figs, want) {
		t.Errorf("figures = %v, want %v", figs, want)
	}
	if want := []int{13, 14}; !reflect.DeepEqual(studies, want) {
		t.Errorf("studies at %v, want %v (after the tables and figures)", studies, want)
	}
	if got := names[len(names)-2:]; !reflect.DeepEqual(got, []string{"transplant", "drift"}) {
		t.Errorf("studies = %v, want transplant then drift", got)
	}
}
