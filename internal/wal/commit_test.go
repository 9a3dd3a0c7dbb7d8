package wal

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// syncLedger is a FaultHook that records, at every physical fsync, how many
// records the log held — a lower bound on what that fsync covers, since the
// hook runs after the fsync fixed its coverage.
type syncLedger struct {
	log *Log // set after Open; the hook is not consulted before

	mu     sync.Mutex
	counts []int
}

func (s *syncLedger) hook(op string) error {
	if op != "sync" {
		return nil
	}
	n := s.log.Records() // the "sync" hook runs outside the log's lock
	s.mu.Lock()
	s.counts = append(s.counts, n)
	s.mu.Unlock()
	return nil
}

func (s *syncLedger) syncs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.counts)
}

// covered reports whether some fsync so far began with at least n records.
func (s *syncLedger) covered(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.counts {
		if c >= n {
			return true
		}
	}
	return false
}

func openLedgered(t *testing.T, mode SyncMode) (*Log, *syncLedger) {
	t.Helper()
	led := &syncLedger{}
	l, _, err := Open(filepath.Join(t.TempDir(), "j.wal"), Config{Sync: mode, FaultHook: led.hook})
	if err != nil {
		t.Fatal(err)
	}
	led.log = l
	return l, led
}

// TestCommitCoversEveryWriteBeforeIt: writers race, and whenever a Commit
// returns, an fsync that began after the caller's write has run — while the
// log as a whole spends fewer fsyncs than commits.
func TestCommitCoversEveryWriteBeforeIt(t *testing.T) {
	const writers, each = 8, 40
	l, led := openLedgered(t, SyncOnClose)
	defer l.Close()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.Write([]byte("r")); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				mine := l.Records() // at least this writer's record index
				if err := l.Commit(); err != nil {
					t.Errorf("Commit: %v", err)
					return
				}
				if !led.covered(mine) {
					t.Errorf("Commit returned with no fsync covering record %d", mine)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Records(); got != writers*each {
		t.Fatalf("Records = %d, want %d", got, writers*each)
	}
	if n := led.syncs(); n > writers*each {
		t.Fatalf("%d physical fsyncs for %d commits", n, writers*each)
	}
}

// TestCommitBurstSharesOneSync: a burst written before anyone commits is
// made durable by exactly one fsync, however many callers then commit.
func TestCommitBurstSharesOneSync(t *testing.T) {
	const burst = 16
	l, led := openLedgered(t, SyncOnClose)
	defer l.Close()
	for i := 0; i < burst; i++ {
		if err := l.Write([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Commit(); err != nil {
				t.Errorf("Commit: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := led.syncs(); n != 1 {
		t.Fatalf("%d fsyncs for one burst, want exactly 1", n)
	}
	if !led.covered(burst) {
		t.Fatal("the one fsync did not cover the whole burst")
	}
}

// TestCommitNothingNewTouchesNoDisk: a Commit with nothing written since
// the last fsync performs none and consults no hook — so a fault injector's
// per-operation ordinals count physical fsyncs only. Append under
// SyncAlways is still one fsync per serial append, each on return.
func TestCommitNothingNewTouchesNoDisk(t *testing.T) {
	l, led := openLedgered(t, SyncAlways)
	defer l.Close()
	if err := l.Commit(); err != nil || led.syncs() != 0 {
		t.Fatalf("Commit on a fresh log: err %v, %d fsyncs", err, led.syncs())
	}
	for i := 1; i <= 3; i++ {
		mustAppend(t, l, "r")
		if led.syncs() != i || !led.covered(i) {
			t.Fatalf("after append %d under SyncAlways: %d fsyncs, covered=%v", i, led.syncs(), led.covered(i))
		}
	}
	if err := l.Commit(); err != nil || led.syncs() != 3 {
		t.Fatalf("Commit with nothing new: err %v, %d fsyncs (want 3)", err, led.syncs())
	}
	if err := l.Write([]byte("r")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil || led.syncs() != 4 {
		t.Fatalf("Commit after a write: err %v, %d fsyncs (want 4)", err, led.syncs())
	}
	// Sync is the forcing call: it always reaches the disk.
	if err := l.Sync(); err != nil || led.syncs() != 5 {
		t.Fatalf("Sync: err %v, %d fsyncs (want 5)", err, led.syncs())
	}
}

// TestCommitFailedSyncReachesEveryWaiter: an fsync that fails is returned
// to every Commit it was covering, without a second attempt on their
// behalf; a Commit that starts afterwards tries again. The waiters call
// fsync with the ticket a Commit entered before the failure would hold —
// that entry is the one instant a test cannot observe from outside.
func TestCommitFailedSyncReachesEveryWaiter(t *testing.T) {
	injected := errors.New("injected")
	started, release := make(chan struct{}), make(chan struct{})
	var hookCalls int
	hook := func(op string) error {
		if op != "sync" {
			return nil
		}
		hookCalls++ // fsyncs are serialised, and the test reads this after they end
		if hookCalls == 1 {
			close(started)
			<-release
			return injected
		}
		return nil
	}
	l, _, err := Open(filepath.Join(t.TempDir(), "j.wal"), Config{Sync: SyncOnClose, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Write([]byte("r")); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 3)
	go func() { errs <- l.Commit() }()
	<-started // the leader is inside its fsync, holding the sync lock
	for i := 0; i < 2; i++ {
		go func() { errs <- l.fsync(1, 0) }() // entered before any attempt finished
	}
	close(release)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, injected) {
			t.Fatalf("commit %d = %v, want the failed fsync's error", i, err)
		}
	}
	if hookCalls != 1 {
		t.Fatalf("%d fsync attempts while the failure was being delivered, want 1", hookCalls)
	}
	if err := l.Commit(); err != nil {
		t.Fatalf("the next Commit did not try again: %v", err)
	}
	if hookCalls != 2 {
		t.Fatalf("%d fsync attempts after the retry, want 2", hookCalls)
	}
}

// TestCommitRacingCloseNeverSyncsClosedFile: Close, Abort and AbortTorn wait
// out an fsync in flight and none starts after them — a racing Commit sees
// "closed" (or finds its records covered), never a file error.
func TestCommitRacingCloseNeverSyncsClosedFile(t *testing.T) {
	shuts := map[string]func(*Log){
		"Close":     func(l *Log) { l.Close() },
		"Abort":     func(l *Log) { l.Abort() },
		"AbortTorn": func(l *Log) { l.AbortTorn(7) },
	}
	for name, shut := range shuts {
		for round := 0; round < 20; round++ {
			var l *Log
			hook := func(op string) error {
				if op == "sync" {
					l.mu.Lock()
					closed := l.closed
					l.mu.Unlock()
					if closed {
						t.Errorf("%s: fsync began on a closed log", name)
					}
				}
				return nil
			}
			var err error
			l, _, err = Open(filepath.Join(t.TempDir(), "j.wal"), Config{Sync: SyncOnClose, FaultHook: hook})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if err := l.Write([]byte("r")); err != nil {
							if !errors.Is(err, errClosed) {
								t.Errorf("%s: Write = %v", name, err)
							}
							return
						}
						if err := l.Commit(); err != nil && !errors.Is(err, errClosed) {
							t.Errorf("%s: Commit = %v", name, err)
							return
						}
					}
				}()
			}
			for l.Records() < 8 { // let the writers get going
				runtime.Gosched()
			}
			shut(l)
			wg.Wait()
		}
	}
}
