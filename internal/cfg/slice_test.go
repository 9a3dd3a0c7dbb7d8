package cfg

import (
	"errors"
	"testing"

	"rpg2/internal/isa"
)

func TestCategoryStrings(t *testing.T) {
	for _, c := range []Category{Direct, IndirectInner, IndirectOuter} {
		if c.String() == "" {
			t.Errorf("category %d unnamed", c)
		}
	}
}

// fuzzText decodes a random instruction stream, seven bytes an instruction:
// opcode, condition, rd, rs1, rs2, immediate and target. Opcodes are mostly
// known and sometimes any byte; a register field is mostly r0..r15,
// sometimes NoReg and sometimes one of 16..254; targets reach one past
// either end of the text.
func fuzzText(data []byte) []isa.Instr {
	n := len(data) / 7
	reg := func(b byte) isa.Reg {
		switch {
		case b < 208:
			return isa.Reg(b % isa.NumRegs)
		case b < 224:
			return isa.NoReg
		default:
			return isa.Reg(16 + int(b-224)*238/31)
		}
	}
	text := make([]isa.Instr, n)
	for i := range text {
		b := data[7*i : 7*i+7]
		op := isa.Op(b[0] % 26)
		if b[0] >= 234 {
			op = isa.Op(b[0])
		}
		text[i] = isa.Instr{Op: op, Cond: isa.Cond(b[1] % 9), Rd: reg(b[2]), Rs1: reg(b[3]), Rs2: reg(b[4]),
			Imm: int64(int8(b[5])), Target: int(b[6])%(n+2) - 1}
	}
	return text
}

// FuzzComputeSlice slices a random PC of a random function range of random
// text, as the interpreter's look-ahead does for whatever text a process
// runs. The slicer must answer with a slice or an *UnsupportedError, never
// panic, and a slice's chain must lie inside the function, before the load.
func FuzzComputeSlice(f *testing.F) {
	// a[b[i]]: the index load, the demand load, the IV update, the latch.
	f.Add(0, 5, 1, []byte{
		byte(isa.MovImm), 0, 8, 208, 208, 0, 0,
		byte(isa.Load), 0, 9, 0, 8, 0, 0,
		byte(isa.Load), 0, 10, 1, 9, 0, 0,
		byte(isa.AddImm), 0, 8, 8, 208, 1, 0,
		byte(isa.Br), byte(isa.LT), 208, 8, 2, 0, 2, // to pc 1
		byte(isa.Ret), 0, 0, 0, 0, 0, 0,
	})
	f.Add(1, 3, 2, []byte{
		byte(isa.Load), 0, 9, 15, 208, 3, 0,
		byte(isa.Store), 0, 9, 15, 208, 3, 0,
		byte(isa.Load), 0, 10, 15, 208, 3, 0,
		byte(isa.Load), 0, 11, 1, 10, 0, 0,
		byte(isa.BrImm), byte(isa.NE), 0, 10, 208, 0, 1,
	})
	f.Fuzz(func(t *testing.T, entry, size, pc int, prog []byte) {
		text := fuzzText(prog)
		if len(text) == 0 {
			return
		}
		fn := isa.Function{Name: "f", Entry: entry % (len(text) + 1), Size: size % (len(text) + 2)}
		g, err := Build(text, fn)
		if err != nil {
			return
		}
		s, err := ComputeSlice(g, g.Loops(), pc%(len(text)+2))
		if err != nil {
			var ue *UnsupportedError
			if !errors.As(err, &ue) {
				t.Fatalf("ComputeSlice refused with %T %v", err, err)
			}
			return
		}
		for _, q := range s.Chain {
			if !fn.Contains(q) || q >= s.DemandPC {
				t.Fatalf("slice of pc %d in %+v has chain pc %d", s.DemandPC, fn, q)
			}
		}
	})
}
