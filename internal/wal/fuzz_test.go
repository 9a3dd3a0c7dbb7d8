package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// canonical is the log frame writes for payloads: header plus one frame each.
func canonical(payloads [][]byte) []byte {
	out := []byte(header)
	for _, p := range payloads {
		out = append(out, frame(p)...)
	}
	return out
}

// samePayloads fails unless got and want hold the same payloads in order.
func samePayloads(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d payloads, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: payload %d = %q, want %q", what, i, got[i], want[i])
		}
	}
}

// FuzzWALSalvage feeds arbitrary bytes to the salvage decoder as a log file.
// Payloads are compared, not bytes: the parser accepts upper-case hex and
// leading zeros that frame never writes.
func FuzzWALSalvage(f *testing.F) {
	clean := canonical([][]byte{[]byte(`{"seq":1}`), []byte("beta"), nil})
	flipped := bytes.Clone(clean)
	flipped[len(header)+len(frame([]byte(`{"seq":1}`)))] ^= 0x01 // the second record's CRC
	f.Add([]byte{})
	f.Add([]byte(header))
	f.Add(clean)
	f.Add(clean[:len(clean)-4]) // torn tail
	f.Add(flipped)
	f.Add(clean[len(header):]) // missing header
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payloads, sal, err := ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		if sal.Records != len(payloads) {
			t.Fatalf("Salvage.Records = %d, %d payloads", sal.Records, len(payloads))
		}
		// The kept prefix is what Open truncates the file to.
		_, kept, _ := scan(data)
		if sal.DroppedBytes != int64(len(data))-kept {
			t.Fatalf("DroppedBytes = %d, file %d bytes, kept prefix %d", sal.DroppedBytes, len(data), kept)
		}
		if sal.Clean() != (sal.DroppedBytes == 0) {
			t.Fatalf("salvage %+v: clean and dropped bytes disagree", sal)
		}
		again, _, resal := scan(canonical(payloads))
		if !resal.Clean() {
			t.Fatalf("canonical re-framing salvaged: %+v", resal)
		}
		samePayloads(t, "canonical re-framing", again, payloads)

		l, _, err := Open(path, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := data[:kept]
		if kept == 0 {
			want = []byte(header) // not a WAL: Open reinitialises it
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Open left %q (%v), want the kept prefix %q", got, err, want)
		}
		if err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		after, sal, err := ReadAll(path)
		if err != nil || !sal.Clean() {
			t.Fatalf("ReadAll after Append: %+v, %v", sal, err)
		}
		samePayloads(t, "after Append", after, append(payloads, []byte("appended")))

		// Any suffix after a canonical log leaves its records in place.
		prefix, _, _ := scan(append(canonical(payloads), data...))
		if len(prefix) < len(payloads) {
			t.Fatalf("suffix cost the canonical log records: kept %d of %d", len(prefix), len(payloads))
		}
		samePayloads(t, "canonical log plus suffix", prefix[:len(payloads)], payloads)
	})
}
