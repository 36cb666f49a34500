package disk

import (
	"math/rand"
	"slices"
	"testing"
)

func TestReadWriteSync(t *testing.T) {
	d := New(8)
	if err := d.Write(3, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Read(3); v != 42 {
		t.Fatalf("read %d", v)
	}
	if _, err := d.Read(8); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if err := d.Write(-1, 0); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashLosesOnlyUnsynced(t *testing.T) {
	d := New(8)
	for i := 0; i < 8; i++ {
		if err := d.Write(i, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unsynced overwrite of block 0.
	if err := d.Write(0, 999); err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		d2 := New(8)
		for i := 0; i < 8; i++ {
			_ = d2.Write(i, uint64(100+i))
		}
		_ = d2.Sync()
		_ = d2.Write(0, 999)
		nd := d2.Crash(rand.New(rand.NewSource(seed)))
		v, err := nd.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if v != 100 && v != 999 {
			t.Fatalf("block 0 is %d, expected old or new value", v)
		}
		for i := 1; i < 8; i++ {
			if v, _ := nd.Read(i); v != uint64(100+i) {
				t.Fatalf("synced block %d lost: %d", i, v)
			}
		}
	}
}

func TestFailAfter(t *testing.T) {
	d := New(4)
	d.FailAfter(2)
	if err := d.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(2, 1); err != ErrCrashed {
		t.Fatalf("expected crash, got %v", err)
	}
	if !d.Crashed() {
		t.Fatal("not marked crashed")
	}
	if _, err := d.Read(0); err != ErrCrashed {
		t.Fatal("reads allowed after crash")
	}
	if err := d.Sync(); err != ErrCrashed {
		t.Fatal("sync allowed after crash")
	}
}

// TestCrashReproducible: a crash is a function of the disk and the seed,
// so a failing crash test can be replayed from its seed.
func TestCrashReproducible(t *testing.T) {
	const n = 32
	crash := func() []uint64 {
		d := New(n)
		for i := 0; i < n; i++ {
			if err := d.Write(i, uint64(1+i)); err != nil {
				t.Fatal(err)
			}
		}
		nd := d.Crash(rand.New(rand.NewSource(7)))
		out := make([]uint64, n)
		for i := range out {
			out[i], _ = nd.Read(i)
		}
		return out
	}
	first := crash()
	for run := 0; run < 20; run++ {
		if got := crash(); !slices.Equal(got, first) {
			t.Fatalf("run %d: same seed, different crash:\n%v\n%v", run, got, first)
		}
	}
}
