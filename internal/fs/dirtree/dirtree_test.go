package dirtree

import (
	"testing"

	"llmfscq/internal/fs/disk"
)

// mkfs formats a fresh disk of testGeometry.
func mkfs(t *testing.T) (*FS, *disk.Disk) {
	t.Helper()
	d := disk.New(DiskBlocks(testGeometry))
	f, err := Mkfs(d, testGeometry)
	if err != nil {
		t.Fatal(err)
	}
	return f, d
}

// check asserts the invariants over f's abstraction (conform_test.go).
func check(t *testing.T, f *FS) {
	t.Helper()
	newSpec(t).check(f)
}

func TestMkfsMount(t *testing.T) {
	f, d := mkfs(t)
	check(t, f)
	g, err := Mount(d, testGeometry)
	if err != nil {
		t.Fatal(err)
	}
	check(t, g)
	inum, err := g.Lookup(nil)
	if err != nil || inum != RootInum {
		t.Fatalf("root lookup: %d, %v", inum, err)
	}
}

func TestMountUnformatted(t *testing.T) {
	d := disk.New(DiskBlocks(testGeometry))
	if _, err := Mount(d, testGeometry); err == nil {
		t.Fatal("mounted an unformatted disk")
	}
}

func TestCreateWriteRead(t *testing.T) {
	f, _ := mkfs(t)
	inum, err := f.Create(nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	data := []uint64{10, 20, 30}
	if err := f.WriteFile(inum, data); err != nil {
		t.Fatal(err)
	}
	got, err := f.ReadFile(inum)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("read back %v", got)
	}
	check(t, f)
	// Rewrite smaller: blocks must be freed, not leaked.
	if err := f.WriteFile(inum, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	check(t, f)
}

func TestMkdirNested(t *testing.T) {
	f, _ := mkfs(t)
	if _, err := f.Mkdir(nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mkdir([]uint64{1}, 2); err != nil {
		t.Fatal(err)
	}
	inum, err := f.Create([]uint64{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Lookup([]uint64{1, 2, 3})
	if err != nil || got != inum {
		t.Fatalf("lookup: %d, %v", got, err)
	}
	check(t, f)
}

func TestDuplicateNameRejected(t *testing.T) {
	f, _ := mkfs(t)
	if _, err := f.Create(nil, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(nil, 5); err == nil {
		t.Fatal("duplicate name accepted (tree_names_distinct violated)")
	}
	check(t, f)
}

func TestUnlink(t *testing.T) {
	f, _ := mkfs(t)
	inum, err := f.Create(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile(inum, []uint64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	s := newSpec(t)
	free0 := s.nat("count_free", s.check(f).bitmap)
	if err := f.Unlink(nil, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup([]uint64{9}); err == nil {
		t.Fatal("unlinked name still resolves")
	}
	free1 := s.nat("count_free", s.check(f).bitmap)
	if free1 != free0+6 { // 4 data blocks + 2 entry blocks
		t.Fatalf("blocks leaked: %d -> %d", free0, free1)
	}
}

func TestUnlinkNonEmptyDirRejected(t *testing.T) {
	f, _ := mkfs(t)
	if _, err := f.Mkdir(nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create([]uint64{1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Unlink(nil, 1); err == nil {
		t.Fatal("removed a non-empty directory")
	}
	check(t, f)
}

func TestRename(t *testing.T) {
	f, _ := mkfs(t)
	if _, err := f.Mkdir(nil, 1); err != nil {
		t.Fatal(err)
	}
	inum, err := f.Create(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile(inum, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	// Move /2 to /1/7.
	if err := f.Rename(nil, 2, []uint64{1}, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lookup([]uint64{2}); err == nil {
		t.Fatal("source name still resolves")
	}
	got, err := f.Lookup([]uint64{1, 7})
	if err != nil || got != inum {
		t.Fatalf("moved file: %d %v", got, err)
	}
	data, err := f.ReadFile(got)
	if err != nil || len(data) != 1 || data[0] != 5 {
		t.Fatalf("contents after rename: %v %v", data, err)
	}
	check(t, f)
}

func TestRenameRejectsCycle(t *testing.T) {
	f, _ := mkfs(t)
	if _, err := f.Mkdir(nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Mkdir([]uint64{1}, 2); err != nil {
		t.Fatal(err)
	}
	// Moving /1 into /1/2 would disconnect the tree.
	if err := f.Rename(nil, 1, []uint64{1, 2}, 3); err == nil {
		t.Fatal("cycle-creating rename accepted")
	}
	check(t, f)
}

func TestRenameRejectsExistingDst(t *testing.T) {
	f, _ := mkfs(t)
	if _, err := f.Create(nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create(nil, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename(nil, 1, nil, 2); err == nil {
		t.Fatal("rename onto existing name accepted")
	}
	check(t, f)
}
