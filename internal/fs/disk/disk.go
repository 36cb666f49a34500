// Package disk simulates an asynchronous block device with the crash model
// FSCQ verifies against: writes become volatile immediately, a sync barrier
// makes them durable, and a crash preserves every synced write while each
// unsynced write is independently either applied or lost.
//
// Fault injection is deterministic: FailAfter arms a crash at the N-th
// write, letting tests sweep every crash point of an operation, and Crash
// draws which unsynced writes survive from the caller's seeded rng in
// block order, so a seed reproduces a crash.
package disk

import (
	"errors"
	"fmt"
	"math/rand"
)

// ErrCrashed is returned once the armed crash point has been reached; all
// subsequent operations fail until the crash is materialized with Crash.
var ErrCrashed = errors.New("disk: crashed")

// Disk is a simulated block device of fixed size. Block values are uint64
// words (a "block" holds one word; callers build records from runs of
// blocks).
type Disk struct {
	volatile []uint64
	synced   []uint64
	dirty    []bool // written since the last Sync, by block

	writes    int
	failAfter int // crash when writes reaches this count; <0 disarmed
	crashed   bool
}

// New creates a zeroed disk with n blocks.
func New(n int) *Disk {
	return &Disk{
		volatile:  make([]uint64, n),
		synced:    make([]uint64, n),
		dirty:     make([]bool, n),
		failAfter: -1,
	}
}

// Size returns the number of blocks.
func (d *Disk) Size() int { return len(d.volatile) }

// Read returns the volatile contents of block a.
func (d *Disk) Read(a int) (uint64, error) {
	if d.crashed {
		return 0, ErrCrashed
	}
	if a < 0 || a >= len(d.volatile) {
		return 0, fmt.Errorf("disk: read out of range: %d", a)
	}
	return d.volatile[a], nil
}

// Write stores v into block a (volatile until the next Sync).
func (d *Disk) Write(a int, v uint64) error {
	if d.crashed {
		return ErrCrashed
	}
	if a < 0 || a >= len(d.volatile) {
		return fmt.Errorf("disk: write out of range: %d", a)
	}
	if d.failAfter >= 0 && d.writes >= d.failAfter {
		d.crashed = true
		return ErrCrashed
	}
	d.writes++
	d.volatile[a] = v
	d.dirty[a] = true
	return nil
}

// Sync makes all volatile writes durable.
func (d *Disk) Sync() error {
	if d.crashed {
		return ErrCrashed
	}
	copy(d.synced, d.volatile)
	clear(d.dirty)
	return nil
}

// FailAfter arms a crash at the n-th subsequent write (0 = the very next
// write fails). A negative n disarms.
func (d *Disk) FailAfter(n int) {
	d.writes = 0
	d.failAfter = n
}

// Crashed reports whether the armed crash point has been hit.
func (d *Disk) Crashed() bool { return d.crashed }

// Crash materializes a crash: it returns a fresh disk whose contents are
// the synced state plus an rng-chosen subset of the unsynced writes — the
// standard asynchronous-disk crash nondeterminism. The rng is drawn once
// per unsynced block, in block order. The receiver is left unusable.
func (d *Disk) Crash(rng *rand.Rand) *Disk {
	nd := New(len(d.volatile))
	copy(nd.volatile, d.synced)
	for a, dirty := range d.dirty {
		if dirty && rng.Intn(2) == 1 {
			nd.volatile[a] = d.volatile[a]
		}
	}
	copy(nd.synced, nd.volatile)
	d.crashed = true
	return nd
}
