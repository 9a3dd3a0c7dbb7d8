package stored

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rpg2/internal/store"
	"rpg2/internal/wal"
)

// stateFiles runs a persisting daemon through commits, a guarded
// invalidation and an epoch roll, and returns the journal it leaves (epoch
// 2: one entry at its head, one commit after it) and a stage file a roll
// that died before its rename would leave beside it.
func stateFiles(f *testing.F) (journal, stage []byte) {
	dir := f.TempDir()
	s, err := New(Config{StateDir: dir, Fsync: wal.SyncAlways, SnapshotEvery: 1 << 30})
	if err != nil {
		f.Fatal(err)
	}
	is, cg := store.Key{Bench: "is", Machine: "cascadelake"}, store.Key{Bench: "cg", Machine: "haswell"}
	gen := s.commit(CommitReq{Key: is, Entry: store.Entry{Func: "f", Candidates: []int{3, 9}, Distance: 12}}).(GenResp).Gen
	s.commit(CommitReq{Key: cg, Entry: store.Entry{Func: "g", Distance: 4, BaselineRate: 0.5}})
	s.invalidate(GenReq{Key: is, Gen: gen})
	if err := s.persist.snapshot(s.store.Export()); err != nil {
		f.Fatal(err)
	}
	s.commit(CommitReq{Key: is, Entry: store.Entry{Func: "f", Distance: 16}})
	// A roll that dies after staging its head: the stage is left behind.
	meta, _ := json.Marshal(opRecord{Op: "epoch", Epoch: 3})
	log, err := s.persist.roll.Begin(meta)
	if err != nil {
		f.Fatal(err)
	}
	head, _ := json.Marshal(opRecord{Op: "entry", Key: cg, Entry: &store.Entry{Func: "stale"}})
	if err := log.Write(head); err != nil {
		f.Fatal(err)
	}
	log.Abort()
	s.persist.close()
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	return read(journalFile), read(journalStageFile)
}

// payloadLines is a WAL file's payloads joined by newlines: the form the
// fuzz function frames back into records.
func payloadLines(f *testing.F, data []byte) []byte {
	path := filepath.Join(f.TempDir(), "log.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		f.Fatal(err)
	}
	recs, _, err := wal.ReadAll(path)
	if err != nil {
		f.Fatal(err)
	}
	return bytes.Join(recs, []byte("\n"))
}

// FuzzReadLog feeds arbitrary bytes to recovery as the daemon's
// store-journal.wal and a leftover store-journal.next. With framed set,
// each input is split into lines that are written as well-formed WAL
// records, so the fuzzer reaches readLog's record decoding behind the
// checksums; without it the bytes land on disk as they are. Whatever the
// journal holds, readLog must not panic or fail, its epoch must be the last
// epoch record's, every other record must come back in order, and a frame
// that is not JSON must be skipped with its neighbours kept. Whatever the
// stage holds, openPersister must recover the journal's epoch and entries
// exactly as without it.
func FuzzReadLog(f *testing.F) {
	journal, stage := stateFiles(f)
	f.Add(journal, stage, false)
	f.Add(payloadLines(f, journal), payloadLines(f, stage), true)
	f.Add([]byte(`{"op":"epoch","epoch":3}
{"op":"commit","key":{"bench":"is"},"entry":{"func":"f","distance":12}}
{"op":"epoch","epoch":5}
{"op":"invalidate","key":{"bench":"is"}}
{"op":"commit","key":{"bench":"cg"},"entry":null}
{"op":"entry","key":{"bench":"cg"},"entry":{"func":"g","candidates":[1,2],"distance":4}}
{"op":"epoch","epoch":"6"}
{"op":7}`),
		[]byte(`{"op":"epoch","epoch":6}
{"op":"entry","key":{"bench":"pr"},"entry":{"func":"h","distance":2}}`), true)
	f.Add([]byte{}, []byte{}, false)

	f.Fuzz(func(t *testing.T, journal, stage []byte, framed bool) {
		dir := t.TempDir()
		place := func(name string, data []byte) string {
			path := filepath.Join(dir, name)
			var err error
			if framed {
				err = wal.WriteAtomic(path, bytes.Split(data, []byte("\n")))
			} else {
				err = os.WriteFile(path, data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			return path
		}
		path := place(journalFile, journal)
		epoch, recs, err := readLog(path)
		if err != nil {
			t.Fatalf("readLog: %v", err)
		}

		payloads, _, err := wal.ReadAll(path)
		if err != nil {
			t.Fatal(err)
		}
		var wantEpoch uint64
		var want []opRecord
		for _, raw := range payloads {
			var rec opRecord
			switch {
			case json.Unmarshal(raw, &rec) != nil:
			case rec.Op == "epoch":
				wantEpoch = rec.Epoch
			default:
				want = append(want, rec)
			}
		}
		if epoch != wantEpoch {
			t.Fatalf("epoch %d, the last epoch record says %d", epoch, wantEpoch)
		}
		if len(recs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(recs, want)) {
			t.Fatalf("records %+v, want %+v", recs, want)
		}

		// The same records with a frame that is not JSON after each one
		// read back the same.
		noisy := make([][]byte, 0, 2*len(payloads)+1)
		noisy = append(noisy, []byte("{"))
		for _, raw := range payloads {
			noisy = append(noisy, raw, []byte(`{"op":`))
		}
		noisyPath := path + ".noisy"
		if err := wal.WriteAtomic(noisyPath, noisy); err != nil {
			t.Fatal(err)
		}
		nEpoch, nRecs, err := readLog(noisyPath)
		if err != nil {
			t.Fatal(err)
		}
		if nEpoch != epoch || !reflect.DeepEqual(nRecs, recs) {
			t.Fatalf("a skipped frame beside each record changed the read: epoch %d, %+v; want %d, %+v", nEpoch, nRecs, epoch, recs)
		}
		if err := os.Remove(noisyPath); err != nil {
			t.Fatal(err)
		}

		p, entries, err := openPersister(Config{StateDir: dir})
		if err != nil {
			t.Fatalf("openPersister: %v", err)
		}
		if p.epoch != epoch || p.recoveredEntries != len(entries) {
			t.Fatalf("recovered epoch %d with %d entries (%d returned); the journal's epoch is %d", p.epoch, p.recoveredEntries, len(entries), epoch)
		}
		// A leftover stage is a roll that never published: nothing in it
		// reaches recovery.
		place(journalStageFile, stage)
		p2, staged, err := openPersister(Config{StateDir: dir})
		if err != nil {
			t.Fatalf("openPersister beside a stage file: %v", err)
		}
		if p2.epoch != epoch || !reflect.DeepEqual(staged, entries) {
			t.Fatalf("a stage file changed recovery: epoch %d, %+v; want %d, %+v", p2.epoch, staged, epoch, entries)
		}
	})
}

// handlerRoute is a store operation with a request body, and what a body
// that decodes must do to a reference store: the answer it gets and the
// state it leaves. run reports false for a body json.Unmarshal refuses.
type handlerRoute struct {
	path string
	run  func(ref store.Store, body []byte) (resp any, ok bool)
}

func route[Req any](path string, do func(ref store.Store, req Req) any) handlerRoute {
	return handlerRoute{path, func(ref store.Store, body []byte) (any, bool) {
		var req Req
		if json.Unmarshal(body, &req) != nil {
			return nil, false
		}
		return do(ref, req), true
	}}
}

var handlerRoutes = []handlerRoute{
	route("lookup", func(ref store.Store, req KeyReq) any {
		e, gen, found := ref.Lookup(req.Key)
		return LookupResp{Entry: e, Gen: gen, Found: found}
	}),
	route("lookup-translated", func(ref store.Store, req KeyReq) any {
		e, from, gen, found := ref.LookupTranslated(req.Key)
		return LookupResp{Entry: e, From: from, Gen: gen, Found: found}
	}),
	route("commit", func(ref store.Store, req CommitReq) any {
		return GenResp{Gen: ref.Commit(req.Key, req.Entry)}
	}),
	route("refund", func(ref store.Store, req GenReq) any {
		return OKResp{OK: ref.Refund(req.Key, req.Gen)}
	}),
	route("invalidate", func(ref store.Store, req GenReq) any {
		return OKResp{OK: ref.Invalidate(req.Key, req.Gen)}
	}),
	route("import", func(ref store.Store, req EntriesMsg) any {
		ref.Import(req.Entries)
		return OKResp{OK: true}
	}),
}

// FuzzStoredHandler posts arbitrary bodies to the store daemon's operations
// through Handler(). json.Unmarshal is the oracle for what a body carries:
// it accepts exactly one JSON value with only whitespace around it. A body
// it decodes must get a 200 and do exactly that one operation — the same
// answer and the same store as the operation run on a reference
// store.Memory. Any other body must get a 400, or a 413 past the body cap,
// and leave the store as it was. A panic would answer 500.
func FuzzStoredHandler(f *testing.F) {
	const maxBody = 512
	for i, body := range []string{
		`{"key":{"bench":"is","machine":"cascadelake"}}`,
		`{"key":{"bench":"is","machine":"skylake"}}`,
		`{"key":{"bench":"cg","machine":"haswell"},"entry":{"func":"g","candidates":[4],"distance":6}}`,
		`{"key":{"bench":"is","machine":"cascadelake"},"gen":1}`,
		`{"key":{"bench":"is","machine":"haswell"},"gen":2}`,
		`{"entries":[{"key":{"bench":"mg"},"entry":{"distance":3}}]}`,
	} {
		f.Add(uint8(i), []byte(body))
		f.Add(uint8(i), []byte(body+"\n"))
	}
	for i := range handlerRoutes {
		f.Add(uint8(i), []byte(`{"key":{"bench":"is"}}{"key":{"bench":"cg"}}`))
		f.Add(uint8(i), []byte(`{"key":{"bench":"is"}} garbage`))
	}
	f.Add(uint8(0), bytes.Repeat([]byte(" "), maxBody+1))

	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		rt := handlerRoutes[int(op)%len(handlerRoutes)]
		srv, err := New(Config{MaxBodyBytes: maxBody})
		if err != nil {
			t.Fatal(err)
		}
		ref := store.NewMemory(store.Config{})
		for _, st := range []store.Store{srv.Store(), ref} {
			st.Commit(store.Key{Bench: "is", Machine: "cascadelake"}, store.Entry{Func: "f", Candidates: []int{3, 9}, Distance: 12})
			st.Commit(store.Key{Bench: "is", Machine: "haswell"}, store.Entry{Func: "f", Distance: 8})
		}

		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/store/"+rt.path, bytes.NewReader(body)))

		var want any
		decodes := false
		if len(body) <= maxBody {
			want, decodes = rt.run(ref, body)
		}
		switch {
		case decodes:
			if w.Code != http.StatusOK {
				t.Fatalf("%s: body %q answered %d (%s), want 200", rt.path, body, w.Code, w.Body)
			}
			wantBody, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if got := bytes.TrimSpace(w.Body.Bytes()); !bytes.Equal(got, wantBody) {
				t.Fatalf("%s: body %q answered %s, want %s", rt.path, body, got, wantBody)
			}
		case len(body) > maxBody:
			if w.Code != http.StatusBadRequest && w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: %d-byte body answered %d, want 400 or 413", rt.path, len(body), w.Code)
			}
		case w.Code != http.StatusBadRequest:
			t.Fatalf("%s: body %q answered %d (%s), want 400", rt.path, body, w.Code, w.Body)
		}
		if got, want := srv.Store().Export(), ref.Export(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: body %q left the store at %+v, want %+v", rt.path, body, got, want)
		}
		if got, want := srv.Store().Counters(), ref.Counters(); got != want {
			t.Fatalf("%s: body %q left the counters at %+v, want %+v", rt.path, body, got, want)
		}
	})
}
