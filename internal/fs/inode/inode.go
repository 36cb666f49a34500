// Package inode implements the inode table: fixed-size records mapping an
// inode number to a type, a size, and direct block addresses — the layer
// FSCQ's Inode.v verifies. All access goes through the caller's open WAL
// transaction.
package inode

import (
	"errors"
	"fmt"

	"llmfscq/internal/fs/wal"
)

// Type tags stored in the first inode word.
const (
	Free uint64 = 0
	File uint64 = 1
	Dir  uint64 = 2
)

// NDirect is the number of direct block slots per inode.
const NDirect = 16

// words per on-disk inode record: type, size, NDirect block addrs.
const recWords = 2 + NDirect

// Inode is the in-memory view of one record.
type Inode struct {
	Num    int
	Type   uint64
	Size   int // used block slots
	Blocks [NDirect]int
}

// Table manages the inode region [start, start+count*recWords) of the WAL
// data region.
type Table struct {
	log   *wal.Log
	start int
	count int
}

// ErrNoInodes is returned when every inode is in use.
var ErrNoInodes = errors.New("inode: no free inodes")

// New mounts a table of count inodes at start.
func New(log *wal.Log, start, count int) (*Table, error) {
	if start < 0 || start+count*recWords > log.DataSize() {
		return nil, fmt.Errorf("inode: table out of data region")
	}
	return &Table{log: log, start: start, count: count}, nil
}

// RegionWords returns the number of data-region words a table of count
// inodes occupies.
func RegionWords(count int) int { return count * recWords }

// Get reads inode i.
func (t *Table) Get(i int) (Inode, error) {
	if i < 0 || i >= t.count {
		return Inode{}, fmt.Errorf("inode: number out of range: %d", i)
	}
	base := t.start + i*recWords
	ty, err := t.log.Read(base)
	if err != nil {
		return Inode{}, err
	}
	sz, err := t.log.Read(base + 1)
	if err != nil {
		return Inode{}, err
	}
	ino := Inode{Num: i, Type: ty, Size: int(sz)}
	if ino.Size > NDirect {
		return Inode{}, fmt.Errorf("inode: corrupt size %d", ino.Size)
	}
	for k := 0; k < NDirect; k++ {
		b, err := t.log.Read(base + 2 + k)
		if err != nil {
			return Inode{}, err
		}
		ino.Blocks[k] = int(b)
	}
	return ino, nil
}

// Put writes inode i.
func (t *Table) Put(ino Inode) error {
	if ino.Num < 0 || ino.Num >= t.count {
		return fmt.Errorf("inode: number out of range: %d", ino.Num)
	}
	if ino.Size < 0 || ino.Size > NDirect {
		return fmt.Errorf("inode: size out of range: %d", ino.Size)
	}
	base := t.start + ino.Num*recWords
	if err := t.log.Write(base, ino.Type); err != nil {
		return err
	}
	if err := t.log.Write(base+1, uint64(ino.Size)); err != nil {
		return err
	}
	for k := 0; k < NDirect; k++ {
		if err := t.log.Write(base+2+k, uint64(ino.Blocks[k])); err != nil {
			return err
		}
	}
	return nil
}

// Alloc finds a free inode, stamps its type, and returns it.
func (t *Table) Alloc(ty uint64) (Inode, error) {
	for i := 0; i < t.count; i++ {
		ino, err := t.Get(i)
		if err != nil {
			return Inode{}, err
		}
		if ino.Type == Free {
			ino.Type = ty
			ino.Size = 0
			ino.Blocks = [NDirect]int{}
			if err := t.Put(ino); err != nil {
				return Inode{}, err
			}
			return ino, nil
		}
	}
	return Inode{}, ErrNoInodes
}

// FreeInode clears inode i.
func (t *Table) FreeInode(i int) error {
	ino, err := t.Get(i)
	if err != nil {
		return err
	}
	ino.Type = Free
	ino.Size = 0
	ino.Blocks = [NDirect]int{}
	return t.Put(ino)
}
