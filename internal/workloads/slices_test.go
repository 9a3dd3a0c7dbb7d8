package workloads_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rpg2/internal/cfg"
	"rpg2/internal/isa"
	. "rpg2/internal/workloads"
)

// TestSlicesPinned pins the backward slicer's answer for every load in the
// kernel function of the repo benchmark's nine interpreter kernels and
// eight fleet pairs: each slice's category, chain, induction variable and
// step, or the reason it is refused.
func TestSlicesPinned(t *testing.T) {
	want := map[string][]string{
		// key = keys[i]; c = cnt[key]
		"is": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: indirect a[f(b[j])] chain [12] iv r8 step 1",
		},
		// t = idx[i]; v = tbl[t]
		"randacc": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: indirect a[f(b[j])] chain [12] iv r8 step 1",
		},
		// c = col[j]; x[c]; val[j]; r = rowof[j]; y[r]
		"cg": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: indirect a[f(b[j])] chain [12] iv r8 step 1",
			"pc 14: direct a[j] chain [] iv r8 step 1",
			"pc 17: direct a[j] chain [] iv r8 step 1",
			"pc 18: indirect a[f(b[j])] chain [17] iv r8 step 1",
		},
		// curF[i]; off[v] and off[v+1] (v is redefined in the row loop); t = edge[j]; depth[t]; the copy loop
		"bfs/soc-gamma": {
			"pc 22: direct a[j] chain [] iv r8 step 1",
			"pc 23: refused: register r12 has 2 reaching definitions",
			"pc 24: refused: register r12 has 2 reaching definitions",
			"pc 26: direct a[j] chain [] iv r13 step 1",
			"pc 27: indirect a[f(b[j])] chain [26] iv r13 step 1",
			"pc 39: direct a[j] chain [] iv r8 step 1",
		},
		// u = src[e]; dist[u]; weight[e]; t = edge[e]; dist[t]; cnt[t]
		"sssp/gowalla-like": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: indirect a[f(b[j])] chain [12] iv r8 step 1",
			"pc 14: direct a[j] chain [] iv r8 step 1",
			"pc 16: direct a[j] chain [] iv r8 step 1",
			"pc 17: indirect a[f(b[j])] chain [16] iv r8 step 1",
			"pc 20: indirect a[f(b[j])] chain [16] iv r8 step 1",
		},
		"sssp/as20000102-like": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: indirect a[f(b[j])] chain [12] iv r8 step 1",
			"pc 14: direct a[j] chain [] iv r8 step 1",
			"pc 16: direct a[j] chain [] iv r8 step 1",
			"pc 17: indirect a[f(b[j])] chain [16] iv r8 step 1",
			"pc 20: indirect a[f(b[j])] chain [16] iv r8 step 1",
		},
		// u = src[e]; t = edge[e]; rank[t]; next[u]
		"pr/as20000102-like": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: direct a[j] chain [] iv r8 step 1",
			"pc 14: indirect a[f(b[j])] chain [13] iv r8 step 1",
			"pc 16: indirect a[f(b[j])] chain [12] iv r8 step 1",
		},
		"pr/ring-small": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: direct a[j] chain [] iv r8 step 1",
			"pc 14: indirect a[f(b[j])] chain [13] iv r8 step 1",
			"pc 16: indirect a[f(b[j])] chain [12] iv r8 step 1",
		},
		"pr/synth-small": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: direct a[j] chain [] iv r8 step 1",
			"pc 14: indirect a[f(b[j])] chain [13] iv r8 step 1",
			"pc 16: indirect a[f(b[j])] chain [12] iv r8 step 1",
		},
		"pr/soc-alpha": {
			"pc 12: direct a[j] chain [] iv r8 step 1",
			"pc 13: direct a[j] chain [] iv r8 step 1",
			"pc 14: indirect a[f(b[j])] chain [13] iv r8 step 1",
			"pc 16: indirect a[f(b[j])] chain [12] iv r8 step 1",
		},
	}
	for _, k := range []string{"is", "randacc", "cg", "bfs/soc-gamma", "sssp/gowalla-like",
		"pr/as20000102-like", "pr/ring-small", "sssp/as20000102-like", "pr/synth-small", "pr/soc-alpha"} {
		bench, input, _ := strings.Cut(k, "/")
		w, err := Build(bench, input, 1)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := w.Bin.Func(KernelFunc)
		g, err := cfg.Build(w.Bin.Text, f)
		if err != nil {
			t.Fatal(err)
		}
		loops := g.Loops()
		var got []string
		for pc := f.Entry; pc < f.Entry+f.Size; pc++ {
			if w.Bin.Text[pc].Op != isa.Load {
				continue
			}
			s, err := computeSlice(g, loops, pc)
			if err != nil {
				_, reason, _ := strings.Cut(err.Error(), "unsupported: ")
				got = append(got, fmt.Sprintf("pc %d: refused: %s", pc, reason))
				continue
			}
			got = append(got, fmt.Sprintf("pc %d: %v chain %v iv %v step %d", pc, s.Category, s.Chain, s.IV.Reg, s.IV.Step))
		}
		if !reflect.DeepEqual(got, want[k]) {
			t.Errorf("%s: the slicer answers\n\t%s\nwant\n\t%s", k, strings.Join(got, "\n\t"), strings.Join(want[k], "\n\t"))
		}
	}
}
