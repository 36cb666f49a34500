// Package dirtree is the file-system facade: directories, pathname
// resolution, and whole-file reads/writes on top of the WAL, the bitmap
// allocator, and the inode table — the layer FSCQ's DirTree.v verifies.
// Every operation is one WAL transaction, so a crash at any point leaves
// the tree in either its pre- or post-operation state.
package dirtree

import (
	"errors"
	"fmt"
	"slices"

	"llmfscq/internal/fs/balloc"
	"llmfscq/internal/fs/disk"
	"llmfscq/internal/fs/inode"
	"llmfscq/internal/fs/wal"
)

// Geometry fixes the on-disk layout inside the WAL data region.
type Geometry struct {
	LogEntries int // WAL capacity
	NInodes    int
	NBlocks    int // file blocks managed by the allocator
}

// magic identifies a formatted file system.
const magic uint64 = 0xf5c9_0001

// RootInum is the root directory's inode number.
const RootInum = 0

// FS is a mounted file system.
type FS struct {
	geo    Geometry
	log    *wal.Log
	alloc  *balloc.Alloc
	itable *inode.Table
}

// DiskBlocks returns the total disk size a geometry needs.
func DiskBlocks(g Geometry) int {
	data := 1 + g.NBlocks + inode.RegionWords(g.NInodes) + g.NBlocks
	return 1 + 2*g.LogEntries + data
}

// layout offsets within the data region.
func (f *FS) superAt() int  { return 0 }
func (f *FS) bitmapAt() int { return 1 }
func (f *FS) itableAt() int { return 1 + f.geo.NBlocks }
func (f *FS) blocksAt() int { return 1 + f.geo.NBlocks + inode.RegionWords(f.geo.NInodes) }

func mount(g Geometry, l *wal.Log) (*FS, error) {
	f := &FS{geo: g, log: l}
	a, err := balloc.New(l, f.bitmapAt(), g.NBlocks, f.blocksAt())
	if err != nil {
		return nil, err
	}
	t, err := inode.New(l, f.itableAt(), g.NInodes)
	if err != nil {
		return nil, err
	}
	f.alloc = a
	f.itable = t
	return f, nil
}

// Mkfs formats a fresh disk and mounts it: writes the superblock and the
// root directory in one transaction.
func Mkfs(d *disk.Disk, g Geometry) (*FS, error) {
	l, err := wal.New(d, g.LogEntries)
	if err != nil {
		return nil, err
	}
	f, err := mount(g, l)
	if err != nil {
		return nil, err
	}
	if err := f.txn(func() error {
		if err := l.Write(f.superAt(), magic); err != nil {
			return err
		}
		return f.itable.Put(inode.Inode{Num: RootInum, Type: inode.Dir})
	}); err != nil {
		return nil, err
	}
	return f, nil
}

// Mount recovers a (possibly crashed) formatted disk.
func Mount(d *disk.Disk, g Geometry) (*FS, error) {
	l, err := wal.Recover(d, g.LogEntries)
	if err != nil {
		return nil, err
	}
	f, err := mount(g, l)
	if err != nil {
		return nil, err
	}
	m, err := l.Read(f.superAt())
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, errors.New("dirtree: not a formatted disk")
	}
	return f, nil
}

// txn runs op as one WAL transaction: committed if op succeeds, aborted
// (its buffered writes discarded) if it fails.
func (f *FS) txn(op func() error) error {
	if err := op(); err != nil {
		f.log.Abort()
		return err
	}
	return f.log.Commit()
}

// ---------------------------------------------------------------------------
// Directory entries: each entry occupies two consecutive block slots of the
// directory file: a nonzero name word and an inode number word.

// dirEntry is one directory entry.
type dirEntry struct {
	Name uint64
	Inum int
}

// readDir lists a directory inode's entries.
func (f *FS) readDir(ino inode.Inode) ([]dirEntry, error) {
	if ino.Type != inode.Dir {
		return nil, fmt.Errorf("dirtree: inode %d is not a directory", ino.Num)
	}
	if ino.Size%2 != 0 {
		return nil, fmt.Errorf("dirtree: corrupt directory size %d", ino.Size)
	}
	var out []dirEntry
	for k := 0; k+1 < ino.Size; k += 2 {
		name, err := f.log.Read(ino.Blocks[k])
		if err != nil {
			return nil, err
		}
		in, err := f.log.Read(ino.Blocks[k+1])
		if err != nil {
			return nil, err
		}
		out = append(out, dirEntry{Name: name, Inum: int(in)})
	}
	return out, nil
}

// find reads a directory inode's entries and returns them with the index
// of name among them, or -1.
func (f *FS) find(ino inode.Inode, name uint64) ([]dirEntry, int, error) {
	ents, err := f.readDir(ino)
	if err != nil {
		return nil, 0, err
	}
	return ents, slices.IndexFunc(ents, func(e dirEntry) bool { return e.Name == name }), nil
}

// walk resolves a pathname (a sequence of name words) from the root,
// returning the inode number of each inode along it: the root first, the
// target last.
func (f *FS) walk(path []uint64) ([]int, error) {
	chain := []int{RootInum}
	for _, name := range path {
		ino, err := f.itable.Get(chain[len(chain)-1])
		if err != nil {
			return nil, err
		}
		ents, i, err := f.find(ino, name)
		if err != nil {
			return nil, err
		}
		if i < 0 {
			return nil, fmt.Errorf("dirtree: name %d not found", name)
		}
		chain = append(chain, ents[i].Inum)
	}
	return chain, nil
}

// Lookup resolves a pathname from the root, returning the inode number.
func (f *FS) Lookup(path []uint64) (int, error) {
	chain, err := f.walk(path)
	if err != nil {
		return 0, err
	}
	return chain[len(chain)-1], nil
}

// addEntry appends (name, inum) to a directory, allocating the two entry
// blocks.
func (f *FS) addEntry(dirInum int, name uint64, target int) error {
	if name == 0 {
		return errors.New("dirtree: zero is not a valid name")
	}
	ino, err := f.itable.Get(dirInum)
	if err != nil {
		return err
	}
	if _, i, err := f.find(ino, name); err != nil {
		return err
	} else if i >= 0 {
		return fmt.Errorf("dirtree: name %d already exists", name)
	}
	if ino.Size+2 > inode.NDirect {
		return errors.New("dirtree: directory full")
	}
	b1, err := f.alloc.Alloc()
	if err != nil {
		return err
	}
	b2, err := f.alloc.Alloc()
	if err != nil {
		return err
	}
	if err := f.log.Write(b1, name); err != nil {
		return err
	}
	if err := f.log.Write(b2, uint64(target)); err != nil {
		return err
	}
	ino.Blocks[ino.Size] = b1
	ino.Blocks[ino.Size+1] = b2
	ino.Size += 2
	return f.itable.Put(ino)
}

// removeEntry unlinks name from a directory without touching the target
// inode, freeing the entry blocks and moving the last entry into the hole.
// It returns the target's inode number.
func (f *FS) removeEntry(dirInum int, name uint64) (int, error) {
	ino, err := f.itable.Get(dirInum)
	if err != nil {
		return 0, err
	}
	ents, idx, err := f.find(ino, name)
	if err != nil {
		return 0, err
	}
	if idx < 0 {
		return 0, fmt.Errorf("dirtree: name %d not found", name)
	}
	if err := f.alloc.Free(ino.Blocks[2*idx]); err != nil {
		return 0, err
	}
	if err := f.alloc.Free(ino.Blocks[2*idx+1]); err != nil {
		return 0, err
	}
	last := ino.Size/2 - 1
	ino.Blocks[2*idx] = ino.Blocks[2*last]
	ino.Blocks[2*idx+1] = ino.Blocks[2*last+1]
	ino.Blocks[2*last] = 0
	ino.Blocks[2*last+1] = 0
	ino.Size -= 2
	if err := f.itable.Put(ino); err != nil {
		return 0, err
	}
	return ents[idx].Inum, nil
}

// create allocates an inode of type ty and links it under the parent
// directory, as one transaction.
func (f *FS) create(parent []uint64, name uint64, ty uint64) (int, error) {
	var inum int
	if err := f.txn(func() error {
		dir, err := f.Lookup(parent)
		if err != nil {
			return err
		}
		ino, err := f.itable.Alloc(ty)
		if err != nil {
			return err
		}
		inum = ino.Num
		return f.addEntry(dir, name, inum)
	}); err != nil {
		return 0, err
	}
	return inum, nil
}

// Create makes a new empty file under the parent directory path.
func (f *FS) Create(parent []uint64, name uint64) (int, error) {
	return f.create(parent, name, inode.File)
}

// Mkdir makes a new empty directory under the parent directory path.
func (f *FS) Mkdir(parent []uint64, name uint64) (int, error) {
	return f.create(parent, name, inode.Dir)
}

// WriteFile replaces the contents of the file at inum with data (one word
// per block), resizing as needed, in one transaction.
func (f *FS) WriteFile(inum int, data []uint64) error {
	return f.txn(func() error {
		ino, err := f.itable.Get(inum)
		if err != nil {
			return err
		}
		if ino.Type != inode.File {
			return fmt.Errorf("dirtree: inode %d is not a file", inum)
		}
		if len(data) > inode.NDirect {
			return fmt.Errorf("dirtree: file too large: %d blocks", len(data))
		}
		// Shrink: free surplus blocks.
		for k := len(data); k < ino.Size; k++ {
			if err := f.alloc.Free(ino.Blocks[k]); err != nil {
				return err
			}
			ino.Blocks[k] = 0
		}
		// Grow: allocate missing blocks.
		for k := ino.Size; k < len(data); k++ {
			b, err := f.alloc.Alloc()
			if err != nil {
				return err
			}
			ino.Blocks[k] = b
		}
		for k, v := range data {
			if err := f.log.Write(ino.Blocks[k], v); err != nil {
				return err
			}
		}
		ino.Size = len(data)
		return f.itable.Put(ino)
	})
}

// ReadFile returns the contents of the file at inum.
func (f *FS) ReadFile(inum int) ([]uint64, error) {
	ino, err := f.itable.Get(inum)
	if err != nil {
		return nil, err
	}
	if ino.Type != inode.File {
		return nil, fmt.Errorf("dirtree: inode %d is not a file", inum)
	}
	out := make([]uint64, ino.Size)
	for k := 0; k < ino.Size; k++ {
		v, err := f.log.Read(ino.Blocks[k])
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// Unlink removes name from the parent directory and frees the target's
// inode and blocks (the target must be a file or an empty directory), in
// one transaction.
func (f *FS) Unlink(parent []uint64, name uint64) error {
	return f.txn(func() error {
		dir, err := f.Lookup(parent)
		if err != nil {
			return err
		}
		inum, err := f.removeEntry(dir, name)
		if err != nil {
			return err
		}
		target, err := f.itable.Get(inum)
		if err != nil {
			return err
		}
		if target.Type == inode.Dir && target.Size > 0 {
			return errors.New("dirtree: directory not empty")
		}
		for k := 0; k < target.Size; k++ {
			if err := f.alloc.Free(target.Blocks[k]); err != nil {
				return err
			}
		}
		return f.itable.FreeInode(inum)
	})
}

// Rename moves srcName under srcParent to dstName under dstParent, in one
// transaction. Moving a directory into its own subtree is rejected (it
// would disconnect the tree), as is an existing destination name.
func (f *FS) Rename(srcParent []uint64, srcName uint64, dstParent []uint64, dstName uint64) error {
	return f.txn(func() error {
		srcDir, err := f.Lookup(srcParent)
		if err != nil {
			return err
		}
		dstChain, err := f.walk(dstParent)
		if err != nil {
			return err
		}
		moved, err := f.removeEntry(srcDir, srcName)
		if err != nil {
			return err
		}
		if slices.Contains(dstChain, moved) {
			return errors.New("dirtree: cannot move a directory into its own subtree")
		}
		return f.addEntry(dstChain[len(dstChain)-1], dstName, moved)
	})
}
