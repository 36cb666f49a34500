package balloc

import (
	"testing"

	"llmfscq/internal/fs/disk"
	"llmfscq/internal/fs/wal"
)

func newAlloc(t *testing.T, count int) *Alloc {
	t.Helper()
	d := disk.New(1 + 2*32 + count)
	l, err := wal.New(d, 32)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(l, 0, count, 100)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocFirstFit(t *testing.T) {
	a := newAlloc(t, 4)
	b1, err := a.Alloc()
	if err != nil || b1 != 100 {
		t.Fatalf("first alloc %d %v", b1, err)
	}
	b2, _ := a.Alloc()
	if b2 != 101 {
		t.Fatalf("second alloc %d", b2)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	b3, _ := a.Alloc()
	if b3 != 100 {
		t.Fatalf("freed block not reused first: %d", b3)
	}
}

func TestExhaustion(t *testing.T) {
	a := newAlloc(t, 2)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != ErrNoSpace {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
}

func TestDoubleFree(t *testing.T) {
	a := newAlloc(t, 2)
	b, _ := a.Alloc()
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b); err == nil {
		t.Fatal("double free accepted")
	}
	if err := a.Free(999); err == nil {
		t.Fatal("out-of-range free accepted")
	}
}
