package workloads_test

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"rpg2/internal/graphs"
	"rpg2/internal/isa"
	"rpg2/internal/mem"
	. "rpg2/internal/workloads"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/build_digests.golden from this build")

const digestsGolden = "testdata/build_digests.golden"

// digestBuilds lists every build the digests pin: pr, bfs and sssp on all
// catalogue inputs, bc on the synthetic ones, and every input-less bench.
func digestBuilds() [][2]string {
	var inputs, synthetic []string
	for _, in := range graphs.Catalogue() {
		inputs = append(inputs, in.Name)
	}
	for _, in := range graphs.SyntheticCatalogue() {
		inputs = append(inputs, in.Name)
		synthetic = append(synthetic, in.Name)
	}
	var out [][2]string
	for _, bench := range []string{"pr", "bfs", "sssp"} {
		for _, in := range inputs {
			out = append(out, [2]string{bench, in})
		}
	}
	for _, in := range synthetic {
		out = append(out, [2]string{"bc", in})
	}
	for _, bench := range []string{"is", "cg", "randacc", "chase", "bc-drift", "is-drift", "chase-drift"} {
		out = append(out, [2]string{bench, ""})
	}
	return out
}

// buildDigest is FNV-1a over everything a build hands a process: the
// registers Setup leaves, the text, WorkPC and every mapped segment's
// name, base and contents.
func buildDigest(w *Workload) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(h hash.Hash64, v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	as := mem.NewAddrSpace()
	var regs [isa.NumRegs]uint64
	w.Setup(as, &regs)
	for _, r := range regs {
		word(h, r)
	}
	for _, in := range w.Bin.Text {
		word(h, uint64(in.Op))
		word(h, uint64(in.Cond))
		word(h, uint64(in.Rd))
		word(h, uint64(in.Rs1))
		word(h, uint64(in.Rs2))
		word(h, uint64(in.Imm))
		word(h, uint64(in.Target))
	}
	word(h, uint64(w.WorkPC))
	for _, s := range as.Segments() {
		h.Write([]byte(s.Name))
		word(h, s.Base)
		word(h, uint64(len(s.Data)))
		for _, v := range s.Data {
			word(h, v)
		}
	}
	return h.Sum64()
}

// TestBuildDigests pins every build byte for byte, so a change to how
// inputs are generated or laid out must show here or leave them as they
// were. Rewrite the golden only on purpose, with -update.
func TestBuildDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every catalogue input")
	}
	var got []string
	for _, b := range digestBuilds() {
		w, err := Build(b[0], b[1], 3)
		if err != nil {
			t.Fatalf("%s/%s: %v", b[0], b[1], err)
		}
		got = append(got, fmt.Sprintf("%s/%s %016x", b[0], b[1], buildDigest(w)))
	}
	if *updateDigests {
		if err := os.WriteFile(digestsGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d builds, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("build digest changed: got %q, golden %q", got[i], want[i])
		}
	}
}
