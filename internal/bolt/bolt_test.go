package bolt

import (
	"testing"

	"rpg2/internal/cache"
	"rpg2/internal/cfg"
	"rpg2/internal/cpu"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
)

// indirectProgram builds a single-loop a[f(b[j])] kernel:
//
//	main: setup regs elsewhere; loop over j: t=b[j]; t2=t*1? via shr; v=a[t]
//
// Registers: r0=bBase r1=aBase r2=n; temps r8 (j), r9 (t), r10 (v), r11 acc.
func indirectProgram(t *testing.T) (*isa.Binary, int) {
	t.Helper()
	a := isa.NewAsm("main")
	a.MovImm(8, 0)
	a.Label("loop")
	a.LoadIdx(9, 0, 8, 0)  // t = b[j]
	a.LoadIdx(10, 1, 9, 0) // v = a[t]   <- demand load
	a.Add(11, 11, 10)
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 2, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	return bin, 2 // demand load PC
}

// outerProgram builds the a[f(b[i])+j] (category 3) nest used by bc.
// Registers: r0=rowptr r1=data r2=rowlen r6=N.
func outerProgram(t *testing.T) (*isa.Binary, int) {
	t.Helper()
	a := isa.NewAsm("main")
	a.MovImm(8, 0)
	a.Label("outer")
	a.LoadIdx(9, 0, 8, 0)  // start = rowptr[i]
	a.Add(10, 1, 9)        // base2 = data + start
	a.LoadIdx(11, 2, 8, 0) // len
	a.MovImm(12, 0)
	a.Br(isa.GE, 12, 11, "next")
	a.Label("inner")
	a.LoadIdx(13, 10, 12, 0) // x = data[start+j]  <- demand load
	a.Add(7, 7, 13)
	a.AddImm(12, 12, 1)
	a.Br(isa.LT, 12, 11, "inner")
	a.Label("next")
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 6, "outer")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	return bin, 6
}

// directProgram builds a plain streaming loop a[j].
func directProgram(t *testing.T) (*isa.Binary, int) {
	t.Helper()
	a := isa.NewAsm("main")
	a.MovImm(8, 0)
	a.Label("loop")
	a.LoadIdx(9, 0, 8, 0) // a[j]  <- demand load
	a.Add(10, 10, 9)
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 2, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	return bin, 1
}

// stackSlotProgram spills the loaded index through a fixed stack slot, the
// pattern §3.2.2 explicitly supports.
func stackSlotProgram(t *testing.T) (*isa.Binary, int) {
	t.Helper()
	a := isa.NewAsm("main")
	a.SubImm(15, 15, 1) // reserve a slot (sp -= 1)
	a.MovImm(8, 0)
	a.Label("loop")
	a.LoadIdx(9, 0, 8, 0)   // t = b[j]
	a.Store(15, 0, 9)       // [sp+0] = t
	a.Load(10, 15, 0)       // t' = [sp+0]
	a.LoadIdx(11, 1, 10, 0) // v = a[t']  <- demand load (pc 5)
	a.Add(12, 12, 11)
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 2, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	return bin, 5
}

func sliceFor(t *testing.T, bin *isa.Binary, pc int) (*cfg.Slice, error) {
	t.Helper()
	f, _ := bin.Func("main")
	g, err := cfg.Build(bin.Text, f)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.ComputeSlice(g, g.Loops(), pc)
}

func TestSliceCategories(t *testing.T) {
	cases := []struct {
		name  string
		build func(*testing.T) (*isa.Binary, int)
		want  cfg.Category
	}{
		{"direct", directProgram, cfg.Direct},
		{"indirect-inner", indirectProgram, cfg.IndirectInner},
		{"indirect-outer", outerProgram, cfg.IndirectOuter},
		{"stack-slot", stackSlotProgram, cfg.IndirectInner},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bin, pc := tc.build(t)
			s, err := sliceFor(t, bin, pc)
			if err != nil {
				t.Fatalf("ComputeSlice: %v", err)
			}
			if s.Category != tc.want {
				t.Fatalf("category = %v, want %v", s.Category, tc.want)
			}
			if tc.name == "stack-slot" && !s.ViaStack {
				t.Fatal("stack-slot slice not flagged ViaStack")
			}
			if tc.name == "indirect-outer" && len(s.DroppedIVs) != 1 {
				t.Fatalf("dropped IVs = %v, want the inner j", s.DroppedIVs)
			}
		})
	}
}

func TestSliceRejectsUnsupported(t *testing.T) {
	// Multiple reaching definitions: r9 conditionally redefined.
	a := isa.NewAsm("main")
	a.MovImm(8, 0)
	a.Label("loop")
	a.LoadIdx(9, 0, 8, 0)
	a.BrImm(isa.EQ, 9, 0, "skip")
	a.AddImm(9, 9, 1) // second def of r9
	a.Label("skip")
	a.LoadIdx(10, 1, 9, 0) // demand
	a.AddImm(8, 8, 1)
	a.Br(isa.LT, 8, 2, "loop")
	a.Halt()
	bin, err := isa.NewProgram("main").Add(a).Link()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sliceFor(t, bin, 5); err == nil {
		t.Fatal("multiple reaching definitions must be rejected")
	}

	// Not a load.
	bin2, _ := directProgram(t)
	if _, err := sliceFor(t, bin2, 0); err == nil {
		t.Fatal("non-load must be rejected")
	}

	// Not in a loop.
	b := isa.NewAsm("main")
	b.Load(1, 0, 5)
	b.Halt()
	bin3, _ := isa.NewProgram("main").Add(b).Link()
	if _, err := sliceFor(t, bin3, 0); err == nil {
		t.Fatal("loop-free load must be rejected")
	}
}

func TestInjectPrefetchProducesPatchableKernel(t *testing.T) {
	bin, pc := indirectProgram(t)
	rw, err := InjectPrefetch(bin, "main", []int{pc}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw.Sites) != 1 || len(rw.PatchPoints) != 1 {
		t.Fatalf("sites=%d patchpoints=%d", len(rw.Sites), len(rw.PatchPoints))
	}
	pp := rw.PatchPoints[0]
	in := rw.Code[pp.Offset]
	if in.Op != isa.AddImm || in.Imm != 20 {
		t.Fatalf("patch point holds %v, want AddImm #20", in)
	}
	patched := pp.Apply(in, 77)
	if patched.Imm != 77 {
		t.Fatalf("Apply(77) -> %d", patched.Imm)
	}
	// Kernel must contain exactly one prefetch and a guard.
	prefetches, guards := 0, 0
	site := rw.Sites[0]
	for _, kin := range rw.Code[site.KernelOffset : site.KernelOffset+site.KernelLen] {
		switch kin.Op {
		case isa.Prefetch:
			prefetches++
		case isa.Br, isa.BrImm:
			guards++
		}
	}
	if prefetches != 1 || guards != 1 {
		t.Fatalf("kernel has %d prefetches, %d guards", prefetches, guards)
	}
	if !site.Spilled {
		t.Fatal("kernel must spill its scratch register")
	}
}

func TestBATRoundTrip(t *testing.T) {
	bin, pc := indirectProgram(t)
	rw, err := InjectPrefetch(bin, "main", []int{pc}, 10)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := bin.Func("main")
	for p0 := f.Entry; p0 < f.Entry+f.Size; p0++ {
		off, ok := rw.BAT.Translate(p0)
		if !ok {
			t.Fatalf("no BAT entry for f0 pc %d", p0)
		}
		back, ok := rw.BAT.TranslateBack(off)
		if !ok || back != p0 {
			t.Fatalf("BAT round trip %d -> %d -> %d", p0, off, back)
		}
	}
	// Kernel interior offsets (between KernelOffset and the copied header)
	// have no reverse mapping — except the kernel start, which aliases
	// the header PC so back edges re-enter the kernel.
	site := rw.Sites[0]
	for off := site.KernelOffset + 1; off < site.KernelOffset+site.KernelLen; off++ {
		if _, ok := rw.BAT.TranslateBack(off); ok {
			t.Fatalf("kernel offset %d should have no reverse mapping", off)
		}
	}
	if _, ok := rw.BAT.TranslateBack(site.KernelOffset); !ok {
		t.Fatal("kernel start must alias the loop header")
	}
}

// execute runs a binary from its entry to halt and returns the final
// architectural state.
func execute(t *testing.T, bin *isa.Binary, setup func(*mem.AddrSpace, *[isa.NumRegs]uint64)) ([isa.NumRegs]uint64, []uint64, uint64) {
	t.Helper()
	hier := cache.New(cache.Config{
		L1:   cache.LevelConfig{Name: "L1d", Lines: 16, Assoc: 2, Latency: 1},
		L2:   cache.LevelConfig{Name: "L2", Lines: 32, Assoc: 2, Latency: 10},
		L3:   cache.LevelConfig{Name: "L3", Lines: 64, Assoc: 4, Latency: 30},
		DRAM: cache.DRAMConfig{Latency: 100, ServiceCycles: 4, MSHRs: 8},
	})
	as := mem.NewAddrSpace()
	th := &cpu.Thread{}
	stack := as.Alloc("stack", 64)
	th.Regs[isa.SP] = stack.End()
	setup(as, &th.Regs)
	entry, err := bin.Entry()
	if err != nil {
		t.Fatal(err)
	}
	th.PC = entry
	core := cpu.New(cpu.Config{MLP: 4}, hier)
	for i := 0; th.Runnable(); i++ {
		if i > 10_000_000 {
			t.Fatal("runaway execution")
		}
		if err := core.Step(th, bin.Text, as); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if th.Fault != nil {
		t.Fatalf("execution faulted: %v at pc %d", th.Fault, th.PC)
	}
	aSeg := as.Segment("a")
	var aData []uint64
	if aSeg != nil {
		aData = append(aData, aSeg.Data...)
	}
	return th.Regs, aData, core.Now
}

// TestKernelIsANOP is the pass's correctness criterion (§3.2.3): for every
// supported category and many distances, the rewritten function computes
// exactly the same architectural result as the original.
func TestKernelIsANOP(t *testing.T) {
	builders := []struct {
		name  string
		build func(*testing.T) (*isa.Binary, int)
	}{
		{"direct", directProgram},
		{"indirect-inner", indirectProgram},
		{"indirect-outer", outerProgram},
		{"stack-slot", stackSlotProgram},
	}
	n := 64
	for _, tc := range builders {
		t.Run(tc.name, func(t *testing.T) {
			bin, pc := tc.build(t)
			setup := func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
				b := make([]uint64, n)
				rowlen := make([]uint64, n)
				for i := range b {
					b[i] = uint64((i * 7) % n)
					rowlen[i] = uint64(i % 4)
				}
				aArr := make([]uint64, 4*n)
				for i := range aArr {
					aArr[i] = uint64(i * 3)
				}
				switch tc.name {
				case "indirect-outer":
					regs[0] = as.Map("rowptr", b).Base
					regs[1] = as.Map("a", aArr).Base
					regs[2] = as.Map("rowlen", rowlen).Base
					regs[6] = uint64(n)
				case "direct":
					regs[0] = as.Map("a", aArr).Base
					regs[2] = uint64(n)
				default:
					regs[0] = as.Map("b", b).Base
					regs[1] = as.Map("a", aArr).Base
					regs[2] = uint64(n)
				}
			}
			origRegs, origA, _ := execute(t, bin, setup)
			for _, d := range []int{1, 5, 20, 63, 64, 100, 200} {
				rw, err := InjectPrefetch(bin, "main", []int{pc}, d)
				if err != nil {
					t.Fatalf("InjectPrefetch(d=%d): %v", d, err)
				}
				nb, err := rw.Apply(bin)
				if err != nil {
					t.Fatalf("Apply: %v", err)
				}
				newRegs, newA, _ := execute(t, nb, setup)
				// SP and the scratch register's transient value are
				// restored by the kernel; every register must match.
				if newRegs != origRegs {
					t.Fatalf("d=%d: registers diverge\norig: %v\n new: %v", d, origRegs, newRegs)
				}
				for i := range origA {
					if origA[i] != newA[i] {
						t.Fatalf("d=%d: memory diverges at a[%d]", d, i)
					}
				}
			}
		})
	}
}

// TestBoundsCheckPreventsCrash verifies the guard's purpose: the kernel's
// own load of b[j+d] would fault on unmapped memory past the array without
// the check (§3.2.3). A huge distance forces every kernel execution out of
// bounds; the program must still run to completion.
func TestBoundsCheckPreventsCrash(t *testing.T) {
	bin, pc := indirectProgram(t)
	rw, err := InjectPrefetch(bin, "main", []int{pc}, 200)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := rw.Apply(bin)
	if err != nil {
		t.Fatal(err)
	}
	n := 16 // tiny array: j+200 is far outside, inside the guard gap
	execute(t, nb, func(as *mem.AddrSpace, regs *[isa.NumRegs]uint64) {
		b := make([]uint64, n)
		aArr := make([]uint64, n)
		regs[0] = as.Map("b", b).Base
		regs[1] = as.Map("a", aArr).Base
		regs[2] = uint64(n)
	}) // execute fails the test on any fault
}

func TestInjectPrefetchErrors(t *testing.T) {
	bin, _ := indirectProgram(t)
	if _, err := InjectPrefetch(bin, "ghost", []int{0}, 10); err == nil {
		t.Fatal("unknown function must fail")
	}
	if _, err := InjectPrefetch(bin, "main", []int{0}, 10); err == nil {
		t.Fatal("non-load candidate must fail")
	}
	var ue *cfg.UnsupportedError
	_, err := InjectPrefetch(bin, "main", []int{0}, 10)
	if !errorsAs(err, &ue) {
		t.Fatalf("error should be UnsupportedError, got %T", err)
	}
}

func errorsAs(err error, target any) bool {
	if err == nil {
		return false
	}
	if ue, ok := err.(*cfg.UnsupportedError); ok {
		*(target.(**cfg.UnsupportedError)) = ue
		return true
	}
	return false
}

func TestApplyRetargetsCallsAndEntry(t *testing.T) {
	// A main that calls the hot function.
	hot := isa.NewAsm("hot")
	hot.MovImm(8, 0)
	hot.Label("loop")
	hot.LoadIdx(9, 0, 8, 0)
	hot.LoadIdx(10, 1, 9, 0)
	hot.AddImm(8, 8, 1)
	hot.Br(isa.LT, 8, 2, "loop")
	hot.Ret()
	mn := isa.NewAsm("main")
	mn.Call("hot")
	mn.Halt()
	bin, err := isa.NewProgram("main").Add(mn).Add(hot).Link()
	if err != nil {
		t.Fatal(err)
	}
	hf, _ := bin.Func("hot")
	rw, err := InjectPrefetch(bin, "hot", []int{hf.Entry + 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := rw.Apply(bin)
	if err != nil {
		t.Fatal(err)
	}
	f1, ok := nb.Func("hot.bolt")
	if !ok {
		t.Fatal("rewritten function missing")
	}
	if nb.Text[0].Op != isa.Call || nb.Text[0].Target != f1.Entry {
		t.Fatalf("call site not retargeted: %v", nb.Text[0])
	}
	if nb.EntryName != "main" {
		t.Fatal("entry must stay main when main was not rewritten")
	}
	// Original hot remains intact for rollback.
	if _, ok := nb.Func("hot"); !ok {
		t.Fatal("f0 must remain in the binary")
	}
}
