package fleetclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"rpg2/internal/fleet"
)

// streamWant is what one connection of the event stream should deliver for
// a body, read straight off the bytes: the events fn sees (Seq above the
// cursor and above every earlier delivery), the cursor after them, and
// whether the body ended at EOF on a value boundary.
func streamWant(body []byte, since, failAt int) (seen []int, cursor int, clean bool) {
	cursor = since
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var e fleet.Event
		if err := dec.Decode(&e); err != nil {
			return seen, cursor, errors.Is(err, io.EOF)
		}
		if e.Seq <= cursor {
			continue
		}
		seen = append(seen, e.Seq)
		if len(seen)-1 == failAt {
			return seen, cursor, false
		}
		cursor = e.Seq
	}
}

// FuzzStreamOnce serves arbitrary bytes as the NDJSON event stream, split
// across two flushed writes, to one streamOnce connection. It must not
// panic; fn must see strictly increasing Seq above the starting cursor; the
// cursor must end at the last Seq fn accepted; and clean must be true only
// where the body ends at EOF on a value boundary (after a complete value,
// or before any). failAt, when in range, makes fn fail on that delivery,
// which must abort the stream without advancing the cursor past it.
func FuzzStreamOnce(f *testing.F) {
	for _, seed := range []struct {
		body        string
		since       int
		split, fail uint8
	}{
		{"", -1, 0, 255},
		{`{"seq":0,"type":"queued","session":1}` + "\n" + `{"seq":1,"type":"admitted","session":1}` + "\n", -1, 20, 255},
		{`{"seq":3}` + "\n" + `{"seq":2}` + "\n" + `{"seq":3}` + "\n" + `{"seq":9}`, 1, 5, 255},
		{`{"seq":5}` + "\n" + `{"seq":6`, 4, 9, 255},         // truncated mid-value
		{`{"seq":5} {"seq":7}{"seq":8}` + "\n\n  ", 0, 3, 1}, // fn fails on the second delivery
		{`{"seq":"x"}`, -1, 0, 255},
		{"not json\n", -1, 2, 255},
		{`{"seq":1}` + "\n" + `]`, -1, 10, 255},
		{`{"seq":9223372036854775807}{"seq":-9223372036854775808}`, -9223372036854775808, 7, 255},
	} {
		f.Add([]byte(seed.body), seed.since, seed.split, seed.fail)
	}
	var (
		mu    sync.Mutex
		body  []byte
		split int
		asked string
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		b, at := body, split
		asked = r.URL.Query().Get("since")
		mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(b[:at])
		w.(http.Flusher).Flush()
		w.Write(b[at:])
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})

	f.Fuzz(func(t *testing.T, b []byte, since int, splitAt, fail uint8) {
		mu.Lock()
		body, split = b, int(splitAt)%(len(b)+1)
		mu.Unlock()
		failAt := int(fail)
		var seen []int
		cursor := since
		clean, err := c.streamOnce(context.Background(), &cursor, func(e fleet.Event) error {
			if n := len(seen); n > 0 && e.Seq <= seen[n-1] || e.Seq <= since {
				t.Fatalf("fn saw seq %d after %v, starting above %d", e.Seq, seen, since)
			}
			seen = append(seen, e.Seq)
			if len(seen)-1 == failAt {
				return errors.New("fn failed")
			}
			return nil
		})
		if asked != strconv.Itoa(since) {
			t.Fatalf("asked since=%s, cursor was %d", asked, since)
		}
		wantSeen, wantCursor, wantClean := streamWant(b, since, failAt)
		if len(seen) != len(wantSeen) {
			t.Fatalf("fn saw %v, the body holds %v", seen, wantSeen)
		}
		for i := range seen {
			if seen[i] != wantSeen[i] {
				t.Fatalf("fn saw %v, the body holds %v", seen, wantSeen)
			}
		}
		if cursor != wantCursor {
			t.Fatalf("cursor %d, want %d (the last accepted seq)", cursor, wantCursor)
		}
		if clean != wantClean || clean && err != nil {
			t.Fatalf("clean %v (err %v), want %v", clean, err, wantClean)
		}
		if !clean && err == nil {
			t.Fatal("an unclean end returned no error")
		}
		if aborted := isStreamAbort(err); aborted != (failAt < len(seen)) {
			t.Fatalf("error %v: aborted %v, fn failed %v", err, aborted, failAt < len(seen))
		}
	})
}
