package workloads_test

import (
	"testing"

	"rpg2/internal/bolt"
	"rpg2/internal/cfg"
	"rpg2/internal/isa"
	"rpg2/internal/machine"
	"rpg2/internal/mem"
	. "rpg2/internal/workloads"
)

func TestBuildIsDeterministic(t *testing.T) {
	a, err := Build("pr", "soc-alpha", 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("pr", "soc-alpha", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Bin.Text) != len(b.Bin.Text) {
		t.Fatal("nondeterministic code size")
	}
	for i := range a.Bin.Text {
		if a.Bin.Text[i] != b.Bin.Text[i] {
			t.Fatalf("code differs at pc %d", i)
		}
	}
	if a.WorkPC != b.WorkPC {
		t.Fatal("nondeterministic WorkPC")
	}
}

func TestWorkPCIsTheDemandLoad(t *testing.T) {
	for _, bench := range AllNames() {
		input := ""
		switch bench {
		case "pr", "bfs", "sssp":
			input = "p2p-gnutella-like"
		case "bc":
			input = "synth-small"
		}
		w, err := Build(bench, input, 1)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		in := w.Bin.Text[w.WorkPC]
		if in.Op != isa.Load {
			t.Errorf("%s: WorkPC %d is %v, want a load", bench, w.WorkPC, in)
		}
		f, ok := w.Bin.FuncAt(w.WorkPC)
		if !ok || f.Name != KernelFunc {
			t.Errorf("%s: WorkPC not inside the kernel", bench)
		}
	}
}

// TestEveryBenchmarkIsPrefetchable runs the InjectPrefetchPass over each
// benchmark's marked site and checks the expected category and site count.
func TestEveryBenchmarkIsPrefetchable(t *testing.T) {
	wantCat := map[string]cfg.Category{
		"pr": cfg.IndirectInner, "bfs": cfg.IndirectInner,
		"sssp": cfg.IndirectInner, "bc": cfg.IndirectOuter,
		"is": cfg.IndirectInner, "cg": cfg.IndirectInner,
		"randacc": cfg.IndirectInner,
	}
	for _, bench := range AllNames() {
		input := ""
		switch bench {
		case "pr", "bfs", "sssp":
			input = "p2p-gnutella-like"
		case "bc":
			input = "synth-small"
		}
		w, err := Build(bench, input, 1)
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		rw, err := bolt.InjectPrefetch(w.Bin, KernelFunc, []int{w.WorkPC}, 16)
		if err != nil {
			t.Fatalf("%s: InjectPrefetch: %v", bench, err)
		}
		if got := rw.Sites[0].Category; got != wantCat[bench] {
			t.Errorf("%s: category %v, want %v", bench, got, wantCat[bench])
		}
	}
}

// TestAJFootprintsExceedLLC pins the property that makes the AJ benchmarks
// prefetch-friendly: their indirect arrays dwarf both machines' LLCs.
func TestAJFootprintsExceedLLC(t *testing.T) {
	llcWords := machine.CascadeLake().Cache.L3.Lines * 8
	for _, bench := range AJNames() {
		w, err := Build(bench, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		as := mem.NewAddrSpace()
		var regs [isa.NumRegs]uint64
		w.Setup(as, &regs)
		words := 0
		for _, s := range as.Segments() {
			words += len(s.Data)
		}
		if words < 4*llcWords {
			t.Errorf("%s maps %d words < 4x LLC (%d)", bench, words, llcWords)
		}
	}
}

func TestRepeatsControlRunLength(t *testing.T) {
	m := machine.CascadeLake()
	short, err := Build("is", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Launch(short.Bin, short.Setup)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(1 << 28)
	if got := p.State().String(); got != "exited" {
		t.Fatalf("1-repeat run should exit, state=%s", got)
	}
	oneRun := p.Counters().Instructions

	three, _ := Build("is", "", 3)
	p3, _ := m.Launch(three.Bin, three.Setup)
	p3.Run(1 << 28)
	if got := p3.Counters().Instructions; got < 2*oneRun {
		t.Fatalf("3 repeats retired %d, 1 repeat %d", got, oneRun)
	}
}

func TestUnknownInputsRejected(t *testing.T) {
	if _, err := Build("pr", "no-such-graph", 1); err == nil {
		t.Fatal("unknown graph input should fail")
	}
	if _, err := Build("zzz", "", 1); err == nil {
		t.Fatal("unknown benchmark should fail")
	}
}
