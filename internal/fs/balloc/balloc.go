// Package balloc is the bitmap block allocator: one data-region word per
// allocatable block (0 = free, 1 = used), allocated first-fit — the layer
// FSCQ's Balloc.v verifies. All reads and writes go through the caller's
// open WAL transaction, so allocation commits atomically with its user.
package balloc

import (
	"errors"
	"fmt"

	"llmfscq/internal/fs/wal"
)

// ErrNoSpace is returned when every block is allocated.
var ErrNoSpace = errors.New("balloc: no free blocks")

// Alloc manages a bitmap at [start, start+count) in the WAL data region,
// tracking blocks [blockStart, blockStart+count).
type Alloc struct {
	log        *wal.Log
	start      int
	count      int
	blockStart int
}

// New mounts an allocator (the bitmap region must be within the data
// region).
func New(log *wal.Log, start, count, blockStart int) (*Alloc, error) {
	if start < 0 || start+count > log.DataSize() {
		return nil, fmt.Errorf("balloc: bitmap out of data region")
	}
	return &Alloc{log: log, start: start, count: count, blockStart: blockStart}, nil
}

// Alloc finds a free block, marks it used, and returns its data-region
// address.
func (a *Alloc) Alloc() (int, error) {
	for i := 0; i < a.count; i++ {
		v, err := a.log.Read(a.start + i)
		if err != nil {
			return 0, err
		}
		if v == 0 {
			if err := a.log.Write(a.start+i, 1); err != nil {
				return 0, err
			}
			return a.blockStart + i, nil
		}
	}
	return 0, ErrNoSpace
}

// Free marks a block free again.
func (a *Alloc) Free(block int) error {
	i := block - a.blockStart
	if i < 0 || i >= a.count {
		return fmt.Errorf("balloc: free out of range: %d", block)
	}
	v, err := a.log.Read(a.start + i)
	if err != nil {
		return err
	}
	if v == 0 {
		return fmt.Errorf("balloc: double free of block %d", block)
	}
	return a.log.Write(a.start+i, 0)
}
