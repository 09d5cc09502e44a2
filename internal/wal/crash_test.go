package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// crashCopy simulates a crash by copying the log directory to a fresh one
// with the active segment truncated to keepBytes — the on-disk state a kill
// between the committer's batch write and its fsync could leave behind,
// depending on how much of the un-fsynced tail the OS happened to flush.
// It runs on the committer goroutine, so it reports failures with t.Error
// (t.Fatal would Goexit the committer and wedge the log).
func crashCopy(t *testing.T, dir, activeSeg string, keepBytes int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Error(err)
		return ""
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Error(err)
			return ""
		}
		if filepath.Join(dir, e.Name()) == activeSeg && int64(len(data)) > keepBytes {
			data = data[:keepBytes]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Error(err)
			return ""
		}
	}
	return dst
}

// TestGroupCommitCrashConsistency kills the log (by snapshotting its
// directory) in the exact window group commit introduces: after a batch's
// frames are written to the segment file but before the fsync that
// acknowledges them. Whatever part of that un-fsynced tail survives — none
// of it, a torn half-frame, or all of it — recovery must surface every
// record that was acknowledged before the crash and never a corrupt one.
func TestGroupCommitCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.SyncPolicy = SyncAlways.String()
	l, err := OpenLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: individually acknowledged records. Each Append returns only
	// after its covering fsync, so all of these must survive any crash.
	const acked = 20
	for i := 1; i <= acked; i++ {
		if _, err := appendDurable(l, []byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: install the crash hook, then submit a concurrent batch that
	// is never acknowledged before the "crash". The hook fires between the
	// batch's write and its fsync and captures three torn directory states.
	var snaps []string
	var once sync.Once
	hookDone := make(chan struct{})
	l.seqMu.Lock()
	l.beforeSync = func() {
		once.Do(func() {
			defer close(hookDone)
			l.ioMu.Lock()
			seg := l.file.Name()
			synced := l.syncedBytes
			written := l.segBytes
			l.ioMu.Unlock()
			if written <= synced {
				t.Error("hook fired with no un-fsynced tail; batch write missing")
			}
			// Nothing past the last fsync survived.
			snaps = append(snaps, crashCopy(t, dir, seg, synced))
			// A torn half-frame survived.
			if written > synced+8 {
				snaps = append(snaps, crashCopy(t, dir, seg, synced+8))
			}
			// The whole write survived, but no fsync acknowledged it.
			snaps = append(snaps, crashCopy(t, dir, seg, written))
		})
	}
	l.seqMu.Unlock()

	const unacked = 8
	var wg sync.WaitGroup
	for i := 0; i < unacked; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := appendDurable(l, []byte(fmt.Sprintf("unacked-%d", i))); err != nil {
				t.Errorf("unacked append: %v", err)
			}
		}(i)
	}
	select {
	case <-hookDone:
	case <-time.After(10 * time.Second):
		t.Fatal("beforeSync hook never fired")
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	for i, snapDir := range snaps {
		if snapDir == "" {
			continue // crashCopy already reported the failure
		}
		l2, err := OpenLog(testConfig(snapDir), nil)
		if err != nil {
			t.Fatalf("snap %d: reopening crashed log: %v", i, err)
		}
		recovered := make(map[uint64]string)
		var maxSeq uint64
		err = l2.Replay(0, func(seq uint64, payload []byte) error {
			recovered[seq] = string(payload)
			if seq > maxSeq {
				maxSeq = seq
			}
			return nil
		})
		if err != nil {
			t.Fatalf("snap %d: replay: %v", i, err)
		}
		// Zero acknowledged-record loss, with payloads intact.
		for s := uint64(1); s <= acked; s++ {
			if got, want := recovered[s], fmt.Sprintf("acked-%d", s); got != want {
				t.Errorf("snap %d: acked seq %d = %q, want %q", i, s, got, want)
			}
		}
		// Whatever survived beyond the acknowledged records must be a
		// gapless, uncorrupted prefix of the unacknowledged batch.
		if int(maxSeq) != len(recovered) {
			t.Errorf("snap %d: recovered %d records up to seq %d; sequence has gaps", i, len(recovered), maxSeq)
		}
		if maxSeq > acked+unacked {
			t.Errorf("snap %d: recovered seq %d beyond anything appended", i, maxSeq)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(snaps) != 3 {
		t.Errorf("captured %d crash snapshots, want 3", len(snaps))
	}
}

// TestAckSemanticsPerPolicy pins down what "acknowledged" means under each
// sync policy now that durability is a separate stage: SyncAlways holds the
// ack hostage to the batch fsync; SyncInterval and SyncOff acknowledge as
// soon as the record is sequenced, exactly as before group commit.
func TestAckSemanticsPerPolicy(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncOff} {
		t.Run(fmt.Sprintf("policy=%d", policy), func(t *testing.T) {
			cfg := testConfig(t.TempDir())
			cfg.SyncPolicy = policy.String()
			l, err := OpenLog(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Stall the committer between write and fsync: acks must not
			// depend on the committer finishing its iteration.
			release := make(chan struct{})
			l.seqMu.Lock()
			l.beforeSync = func() { <-release }
			l.seqMu.Unlock()
			done := make(chan error, 1)
			go func() {
				_, err := appendDurable(l, []byte("sequenced"))
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Append blocked on durability under a non-always policy")
			}
			close(release)
			l.seqMu.Lock()
			l.beforeSync = nil
			l.seqMu.Unlock()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Under SyncAlways the same stall must delay the ack until the fsync
	// completes.
	cfg := testConfig(t.TempDir())
	cfg.SyncPolicy = SyncAlways.String()
	l, err := OpenLog(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	l.seqMu.Lock()
	l.beforeSync = func() { <-release }
	l.seqMu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := appendDurable(l, []byte("durable"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("SyncAlways Append returned before its fsync (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append never acknowledged after fsync was released")
	}
	l.seqMu.Lock()
	l.beforeSync = nil
	l.seqMu.Unlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
