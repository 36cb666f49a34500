package wal

import (
	"math/rand"
	"testing"

	"llmfscq/internal/fs/disk"
)

func newLog(t *testing.T, entries, data int) (*disk.Disk, *Log) {
	t.Helper()
	d := disk.New(1 + 2*entries + data)
	l, err := New(d, entries)
	if err != nil {
		t.Fatal(err)
	}
	return d, l
}

func TestCommitApplies(t *testing.T) {
	_, l := newLog(t, 8, 16)
	if err := l.Write(3, 42); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(5, 7); err != nil {
		t.Fatal(err)
	}
	// Buffered writes are visible before commit.
	if v, _ := l.Read(3); v != 42 {
		t.Fatalf("read-through failed: got %d", v)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := l.Read(3); v != 42 {
		t.Fatalf("after commit: got %d", v)
	}
	if v, _ := l.Read(5); v != 7 {
		t.Fatalf("after commit: got %d", v)
	}
	if l.Pending() != 0 {
		t.Fatal("pending not cleared")
	}
}

func TestAbortDiscards(t *testing.T) {
	_, l := newLog(t, 8, 16)
	if err := l.Write(3, 42); err != nil {
		t.Fatal(err)
	}
	l.Abort()
	if v, _ := l.Read(3); v != 0 {
		t.Fatalf("abort leaked write: got %d", v)
	}
}

func TestOverwriteCoalesces(t *testing.T) {
	_, l := newLog(t, 2, 16)
	for i := 0; i < 10; i++ {
		if err := l.Write(1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Pending() != 1 {
		t.Fatalf("coalescing failed: %d pending", l.Pending())
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := l.Read(1); v != 9 {
		t.Fatalf("got %d", v)
	}
}

func TestTooLarge(t *testing.T) {
	_, l := newLog(t, 2, 16)
	if err := l.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Write(2, 1); err != ErrTooLarge {
		t.Fatalf("expected ErrTooLarge, got %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	_, l := newLog(t, 2, 16)
	if err := l.Write(16, 1); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := l.Read(-1); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestRecoverIdempotent re-crashes during recovery itself: recovery must
// remain correct however often it is interrupted.
func TestRecoverIdempotent(t *testing.T) {
	const entries, data = 4, 8
	for failAfter := 0; failAfter < 20; failAfter++ {
		d := disk.New(1 + 2*entries + data)
		l, err := New(d, entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Write(1, 11); err != nil {
			t.Fatal(err)
		}
		if err := l.Write(2, 22); err != nil {
			t.Fatal(err)
		}
		// Crash right after the commit point: header says 2 entries.
		d.FailAfter(6) // entries(4 writes)+sync, header(1 write)+sync, then crash on apply
		err = l.Commit()
		crashed := d
		if err != nil {
			crashed = d.Crash(rand.New(rand.NewSource(1)))
		}
		// Now crash during recovery, repeatedly, then finish recovery.
		for round := 0; round < 3; round++ {
			crashed.FailAfter(failAfter % (3 + round))
			rl, rerr := Recover(crashed, entries)
			if rerr == nil {
				if v, _ := rl.Read(1); err == nil && v != 11 {
					// If the original commit succeeded, data must persist.
					t.Fatalf("lost committed data: %d", v)
				}
				break
			}
			crashed = crashed.Crash(rand.New(rand.NewSource(int64(round))))
		}
		crashed.FailAfter(-1)
		rl, rerr := Recover(crashed, entries)
		if rerr != nil {
			t.Fatalf("final recovery failed: %v", rerr)
		}
		v1, _ := rl.Read(1)
		v2, _ := rl.Read(2)
		if !((v1 == 11 && v2 == 22) || (v1 == 0 && v2 == 0)) {
			t.Fatalf("non-atomic after repeated recovery crashes: %d %d", v1, v2)
		}
	}
}
