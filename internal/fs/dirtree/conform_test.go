package dirtree

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"llmfscq/internal/corpus"
	"llmfscq/internal/fs/balloc"
	"llmfscq/internal/fs/disk"
	"llmfscq/internal/fs/inode"
	"llmfscq/internal/fs/wal"
	"llmfscq/internal/kernel"
)

// This file is the conformance harness: each layer of the file system is
// checked against the corpus Fixpoints that specify it, evaluated by
// kernel.Evaluator in corpus.Default()'s environment. An abstraction
// function maps each layer's state to a corpus term:
//
//	layer    state        term                 spec
//	wal      data region  list nat             Log.v: replay
//	balloc   bitmap       list bool            Balloc.v: alloc, count_free
//	inode    inode table  list inode           Inode.v: iget, igrow, ishrink
//	dirtree  directory    list (prod nat nat)  Dir.v: dlookup, dadd, dremove
//	dirtree  tree         tree                 DirTree.v: tlookup, tnames
//
// Corpus nats are unary, so the harness runs on a small geometry and
// numbers blocks from the start of the block region. dirtree imports every
// layer, so the one harness lives here.

// testGeometry keeps every bitmap and block number small enough to
// evaluate.
var testGeometry = Geometry{LogEntries: 64, NInodes: 8, NBlocks: 48}

// spec evaluates corpus functions on ground terms.
type spec struct {
	t  *testing.T
	ev *kernel.Evaluator
}

func newSpec(t *testing.T) *spec {
	t.Helper()
	c, err := corpus.Default()
	if err != nil {
		t.Fatal(err)
	}
	return &spec{t: t, ev: kernel.NewEvaluator(c.Env)}
}

// call evaluates the corpus function fn on args.
func (s *spec) call(fn string, args ...*kernel.Term) *kernel.Term {
	s.t.Helper()
	v, err := s.ev.Normalize(kernel.A(fn, args...))
	if err != nil {
		s.t.Fatalf("%s: %v", fn, err)
	}
	return v
}

// nat evaluates fn on args to a number.
func (s *spec) nat(fn string, args ...*kernel.Term) int {
	s.t.Helper()
	v := s.call(fn, args...)
	n, ok := v.AsNat()
	if !ok {
		s.t.Fatalf("%s: %s is not a numeral", fn, v)
	}
	return n
}

func nat(n int) *kernel.Term { return kernel.NatLit(n) }

func pair(a, b *kernel.Term) *kernel.Term { return kernel.A("pair", a, b) }

var (
	none = kernel.A("None")
	yes  = kernel.A("true")
	no   = kernel.A("false")
)

// natOf decodes a numeral the harness built.
func natOf(x *kernel.Term) int {
	n, _ := x.AsNat()
	return n
}

// elems returns a list term's elements.
func elems(l *kernel.Term) []*kernel.Term {
	var out []*kernel.Term
	for ; l.Fun == "cons"; l = l.Args[1] {
		out = append(out, l.Args[0])
	}
	return out
}

// readWords reads n data-region words from a.
func readWords(t *testing.T, l *wal.Log, a, n int) []uint64 {
	t.Helper()
	out := make([]uint64, n)
	for i := range out {
		v, err := l.Read(a + i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

// natList abstracts words as a list nat.
func natList(ws []uint64) *kernel.Term {
	xs := make([]*kernel.Term, len(ws))
	for i, w := range ws {
		xs[i] = nat(int(w))
	}
	return kernel.ListLit(xs...)
}

// bitmap abstracts bitmap words as a list bool (true = allocated).
func bitmap(ws []uint64) *kernel.Term {
	xs := make([]*kernel.Term, len(ws))
	for i, w := range ws {
		xs[i] = no
		if w != 0 {
			xs[i] = yes
		}
	}
	return kernel.ListLit(xs...)
}

// fsState is a file system's abstraction. Terms are interned, so two
// states are equal exactly when their fields are.
type fsState struct {
	bitmap *kernel.Term // list bool
	inodes *kernel.Term // list inode: Inode size blocks
	blocks *kernel.Term // list nat: the block region's words
	tree   *kernel.Term // tree rooted at RootInum, entries in disk order
}

// abstract maps f to corpus terms. Its walk of the tree asserts what it
// sees: an entry points at an allocated inode, no inode is reached twice,
// every allocated inode is reached, and every block an inode holds is in
// the block region.
func abstract(t *testing.T, f *FS) fsState {
	t.Helper()
	g := f.geo
	st := fsState{
		bitmap: bitmap(readWords(t, f.log, f.bitmapAt(), g.NBlocks)),
		blocks: natList(readWords(t, f.log, f.blocksAt(), g.NBlocks)),
	}
	gos := make([]inode.Inode, g.NInodes)
	inos := make([]*kernel.Term, g.NInodes)
	for i := range inos {
		ino, err := f.itable.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		gos[i] = ino
		var bl []*kernel.Term
		for _, b := range ino.Blocks {
			if b == 0 {
				continue
			}
			if b < f.blocksAt() || b >= f.blocksAt()+g.NBlocks {
				t.Fatalf("inode %d holds block %d, outside the block region", i, b)
			}
			bl = append(bl, nat(b-f.blocksAt()))
		}
		inos[i] = kernel.A("Inode", nat(ino.Size), kernel.ListLit(bl...))
	}
	st.inodes = kernel.ListLit(inos...)

	reached := make([]bool, g.NInodes)
	var walk func(inum int) *kernel.Term
	walk = func(inum int) *kernel.Term {
		if inum < 0 || inum >= g.NInodes || gos[inum].Type == inode.Free {
			t.Fatalf("an entry points at free inode %d", inum)
		}
		if reached[inum] {
			t.Fatalf("inode %d is reachable twice", inum)
		}
		reached[inum] = true
		ino := gos[inum]
		if ino.Type == inode.File {
			return kernel.A("TreeFile", nat(inum))
		}
		ents, err := f.readDir(ino)
		if err != nil {
			t.Fatal(err)
		}
		es := make([]*kernel.Term, len(ents))
		for i, e := range ents {
			es[i] = pair(nat(int(e.Name)), walk(e.Inum))
		}
		return kernel.A("TreeDir", nat(inum), kernel.ListLit(es...))
	}
	if st.tree = walk(RootInum); st.tree.Fun != "TreeDir" {
		t.Fatal("the root is not a directory")
	}
	for i, ino := range gos {
		if ino.Type != inode.Free && !reached[i] {
			t.Fatalf("inode %d is allocated but unreachable", i)
		}
	}
	return st
}

// check abstracts f and asserts the rest of the file system's invariants
// over the abstraction, with the spec's functions:
//   - every inode's length (iblocks i) is its isize i;
//   - every block an inode holds is allocated in the bitmap (selN) and
//     held by no other inode or slot;
//   - no block leaks: the bitmap allocates, by count_free, exactly the
//     blocks the inodes hold;
//   - every directory's names (tnames) are nonzero and distinct.
func (s *spec) check(f *FS) fsState {
	t := s.t
	t.Helper()
	st := abstract(t, f)
	held := map[int]bool{}
	for i, ino := range elems(st.inodes) {
		blocks := s.call("iblocks", ino)
		if n, size := s.nat("length", blocks), s.nat("isize", ino); n != size {
			t.Fatalf("inode %d: length (iblocks i) = %d, isize i = %d", i, n, size)
		}
		for _, b := range elems(blocks) {
			if s.call("selN", st.bitmap, b, no) != yes {
				t.Fatalf("inode %d holds block %d, which the bitmap marks free", i, natOf(b))
			}
			if held[natOf(b)] {
				t.Fatalf("block %d is held twice", natOf(b))
			}
			held[natOf(b)] = true
		}
	}
	if used := f.geo.NBlocks - s.nat("count_free", st.bitmap); used != len(held) {
		t.Fatalf("the bitmap allocates %d blocks but inodes hold %d: a block leaks", used, len(held))
	}
	var names func(x *kernel.Term)
	names = func(x *kernel.Term) {
		if x.Fun != "TreeDir" {
			return
		}
		seen := map[int]bool{}
		for _, name := range elems(s.call("tnames", x.Args[1])) {
			if n := natOf(name); n == 0 || seen[n] {
				t.Fatalf("directory %s: name %d is zero or repeated", x.Args[0], n)
			}
			seen[natOf(name)] = true
		}
		for _, e := range elems(x.Args[1]) {
			names(e.Args[1])
		}
	}
	names(st.tree)
	return st
}

// dirs maps every directory of a tree to its Dir.v abstraction, the list
// of (name, inode number) pairs in disk order.
func dirs(tree *kernel.Term) map[int]*kernel.Term {
	out := map[int]*kernel.Term{}
	var walk func(x *kernel.Term)
	walk = func(x *kernel.Term) {
		if x.Fun != "TreeDir" {
			return
		}
		var d []*kernel.Term
		for _, e := range elems(x.Args[1]) {
			d = append(d, pair(e.Args[0], e.Args[1].Args[0]))
			walk(e.Args[1])
		}
		out[natOf(x.Args[0])] = kernel.ListLit(d...)
	}
	walk(tree)
	return out
}

// canon sorts every entry list of a directory or tree term by name. On
// disk a new entry is appended and a removed entry's slots are filled with
// the last entry, while dadd puts the new entry first: only the set of
// entries is specified.
func canon(x *kernel.Term) *kernel.Term {
	switch x.Fun {
	case "TreeDir":
		return kernel.A("TreeDir", x.Args[0], canon(x.Args[1]))
	case "cons":
		es := elems(x)
		for i, e := range es {
			es[i] = pair(e.Args[0], canon(e.Args[1]))
		}
		slices.SortFunc(es, func(a, b *kernel.Term) int { return cmp.Compare(natOf(a.Args[0]), natOf(b.Args[0])) })
		return kernel.ListLit(es...)
	}
	return x
}

// at resolves path in tree with DirTree.v's tlookup: Some subtree, or
// None.
func (s *spec) at(tree *kernel.Term, path []uint64) *kernel.Term {
	cur := tree
	for _, name := range path {
		if cur.Fun != "TreeDir" {
			return none
		}
		r := s.call("tlookup", nat(int(name)), cur.Args[1])
		if r.Fun != "Some" {
			return r
		}
		cur = r.Args[0]
	}
	return kernel.A("Some", cur)
}

// child is path extended by name, sharing no storage with path.
func child(path []uint64, name uint64) []uint64 { return append(slices.Clip(path), name) }

// op is one file-system operation of a test workload.
type op struct {
	kind string   // mkdir, create, write, unlink or rename
	path []uint64 // the parent directory; for write, the file
	name uint64
	data []uint64 // write: the new contents
	dst  []uint64 // rename: the destination directory and name
	to   uint64
}

func (o op) run(f *FS) error {
	switch o.kind {
	case "mkdir":
		_, err := f.Mkdir(o.path, o.name)
		return err
	case "create":
		_, err := f.Create(o.path, o.name)
		return err
	case "write":
		inum, err := f.Lookup(o.path)
		if err != nil {
			return err
		}
		return f.WriteFile(inum, o.data)
	case "unlink":
		return f.Unlink(o.path, o.name)
	}
	return f.Rename(o.path, o.name, o.dst, o.to)
}

// workload exercises every operation: a file grows and shrinks, renames
// move a file and a directory entry across directories, and removals fill
// a hole with a directory's last entry.
func workload() []op {
	return []op{
		{kind: "mkdir", name: 1},
		{kind: "create", name: 2},
		{kind: "write", path: []uint64{2}, data: []uint64{11, 22, 33}},
		{kind: "create", path: []uint64{1}, name: 3},
		{kind: "write", path: []uint64{1, 3}, data: []uint64{7}},
		{kind: "mkdir", path: []uint64{1}, name: 4},
		{kind: "write", path: []uint64{2}, data: []uint64{9, 9}},
		{kind: "rename", path: []uint64{1}, name: 3, dst: []uint64{1, 4}, to: 5},
		{kind: "rename", name: 2, dst: []uint64{1}, to: 2},
		{kind: "unlink", path: []uint64{1, 4}, name: 5},
		{kind: "unlink", path: []uint64{1}, name: 4},
		{kind: "unlink", path: []uint64{1}, name: 2},
	}
}

// checked runs operations on a file system and checks each against the
// spec: the abstraction after an operation must be what the corpus
// functions compute from the abstraction before it.
type checked struct {
	*spec
	f   *FS
	cur fsState
}

func newChecked(t *testing.T) *checked {
	t.Helper()
	s := newSpec(t)
	f, _ := mkfs(t)
	return &checked{spec: s, f: f, cur: s.check(f)}
}

// inum resolves path in the current tree.
func (c *checked) inum(path []uint64) int {
	c.t.Helper()
	r := c.at(c.cur.tree, path)
	if r.Fun != "Some" {
		c.t.Fatalf("%v does not resolve", path)
	}
	return natOf(r.Args[0].Args[0])
}

// run performs o and checks it: every directory against Dir.v's dadd and
// dremove, a written file's inode against Inode.v's igrow or ishrink with
// Balloc.v's alloc, and every path against tlookup.
func (c *checked) run(o op) {
	c.t.Helper()
	pre, want := c.cur, dirs(c.cur.tree)
	name := nat(int(o.name))
	var wantIno *kernel.Term
	switch o.kind {
	case "write":
		// WriteFile frees from the end, or allocates first-fit.
		wantIno = c.call("iget", pre.inodes, nat(c.inum(o.path)))
		bm := pre.bitmap
		for size := c.nat("isize", wantIno); size != len(o.data); {
			if size > len(o.data) {
				wantIno = c.call("ishrink", wantIno)
				size--
				continue
			}
			b := c.call("alloc", bm)
			if b.Fun != "Some" {
				c.t.Fatalf("%v: alloc finds no free block", o)
			}
			wantIno = c.call("igrow", wantIno, b.Args[0])
			bm = c.call("updN", bm, b.Args[0], yes)
			size++
		}
	case "unlink", "rename":
		p := c.inum(o.path)
		target := c.call("dlookup", name, want[p])
		if target.Fun != "Some" {
			c.t.Fatalf("%v: dlookup finds no %d", o, o.name)
		}
		want[p] = c.call("dremove", name, want[p])
		if o.kind == "unlink" {
			delete(want, natOf(target.Args[0]))
		} else {
			to := c.inum(o.dst)
			want[to] = c.call("dadd", nat(int(o.to)), target.Args[0], want[to])
		}
	}
	if err := o.run(c.f); err != nil {
		c.t.Fatalf("%v: %v", o, err)
	}
	post := c.check(c.f)
	switch o.kind {
	case "mkdir", "create":
		// Only the file system knows which inode it allocated.
		sub := c.at(post.tree, child(o.path, o.name))
		if sub.Fun != "Some" {
			c.t.Fatalf("%v: tlookup finds no %d", o, o.name)
		}
		inum, p := sub.Args[0].Args[0], c.inum(o.path)
		want[p] = c.call("dadd", name, inum, want[p])
		if o.kind == "mkdir" {
			want[natOf(inum)] = kernel.ListLit()
		}
	case "write":
		inum := c.inum(o.path)
		if got := c.call("iget", post.inodes, nat(inum)); got != wantIno {
			c.t.Fatalf("%v: inode %s, spec %s", o, got, wantIno)
		}
		if got, err := c.f.ReadFile(inum); err != nil || !slices.Equal(got, o.data) {
			c.t.Fatalf("%v: read back %v, %v", o, got, err)
		}
		for k, b := range elems(c.call("iblocks", wantIno)) {
			if c.nat("selN", post.blocks, b, nat(0)) != int(o.data[k]) {
				c.t.Fatalf("%v: block %d does not hold word %d", o, natOf(b), k)
			}
		}
	}
	got := dirs(post.tree)
	if len(got) != len(want) {
		c.t.Fatalf("%v: %d directories, spec %d", o, len(got), len(want))
	}
	for inum, d := range want {
		if canon(got[inum]) != canon(d) {
			c.t.Fatalf("%v: directory %d is %s, spec %s", o, inum, got[inum], d)
		}
	}
	c.checkLookups(post.tree, nil)
	c.cur = post
}

// checkLookups checks Lookup against tlookup on every name 1..9 under
// every directory of the subtree at path.
func (c *checked) checkLookups(sub *kernel.Term, path []uint64) {
	c.t.Helper()
	for name := uint64(1); name <= 9; name++ {
		p := child(path, name)
		want := c.at(sub, []uint64{name})
		got, err := c.f.Lookup(p)
		if want == none {
			if err == nil {
				c.t.Fatalf("Lookup %v = %d, tlookup finds nothing", p, got)
			}
			continue
		}
		if err != nil || got != natOf(want.Args[0].Args[0]) {
			c.t.Fatalf("Lookup %v = %d, %v; tlookup finds %s", p, got, err, want)
		}
		c.checkLookups(want.Args[0], p)
	}
}

// TestOpsConformToSpec runs the workload with each operation checked
// against the corpus: Create and Mkdir against dadd, Unlink against
// dremove, Rename against both, WriteFile against alloc, igrow and
// ishrink, and after each, Lookup against tlookup.
func TestOpsConformToSpec(t *testing.T) {
	c := newChecked(t)
	for _, o := range workload() {
		c.run(o)
	}
}

// buildTo replays the workload prefix [0,k) on a fresh file system.
func buildTo(t *testing.T, k int) (*FS, *disk.Disk) {
	t.Helper()
	f, d := mkfs(t)
	for _, o := range workload()[:k] {
		if err := o.run(f); err != nil {
			t.Fatalf("%v: %v", o, err)
		}
	}
	return f, d
}

// sweepCrashes runs o on the file system build returns, crashing it at
// every write-level point in turn, and checks that each crashed disk,
// under several materializations of the disk nondeterminism, mounts to
// either the abstraction before o or the one after it.
func sweepCrashes(t *testing.T, s *spec, build func() (*FS, *disk.Disk), o op) {
	t.Helper()
	f, _ := build()
	pre := s.check(f)
	if err := o.run(f); err != nil {
		t.Fatalf("%v: %v", o, err)
	}
	post := s.check(f)
	for failAfter := 0; ; failAfter++ {
		f, d := build()
		d.FailAfter(failAfter)
		err := o.run(f)
		if !d.Crashed() {
			if err != nil {
				t.Fatalf("%v failed without a crash: %v", o, err)
			}
			return // crash point beyond the operation; sweep done
		}
		for seed := int64(0); seed < 4; seed++ {
			g, err := Mount(d.Crash(rand.New(rand.NewSource(seed*31+int64(failAfter)))), testGeometry)
			if err != nil {
				t.Fatalf("%v failAfter %d: mount: %v", o, failAfter, err)
			}
			// Equal abstractions satisfy the same invariants, so only
			// pre and post need the evaluated ones.
			if st := abstract(t, g); st != pre && st != post {
				t.Fatalf("%v failAfter %d seed %d: non-atomic state, tree %s\npre  %s\npost %s",
					o, failAfter, seed, st.tree, pre.tree, post.tree)
			}
		}
	}
}

// TestCrashSweep is the headline crash-safety property, the dynamic
// analogue of FSCQ's whole-system theorem: every operation of the
// workload is atomic under every crash point during it.
func TestCrashSweep(t *testing.T) {
	s := newSpec(t)
	for i, o := range workload() {
		sweepCrashes(t, s, func() (*FS, *disk.Disk) { return buildTo(t, i) }, o)
	}
}

// TestRenameCrashAtomic sweeps a Rename that moves a file out of the
// root into a subdirectory under a new name.
func TestRenameCrashAtomic(t *testing.T) {
	build := func() (*FS, *disk.Disk) {
		f, d := mkfs(t)
		for _, o := range []op{{kind: "mkdir", name: 1}, {kind: "create", name: 2}} {
			if err := o.run(f); err != nil {
				t.Fatalf("%v: %v", o, err)
			}
		}
		return f, d
	}
	sweepCrashes(t, newSpec(t), build, op{kind: "rename", name: 2, dst: []uint64{1}, to: 9})
}

// newLog mounts a log on a fresh disk and commits base to it.
func newLog(t *testing.T, base []wal.Entry) (*disk.Disk, *wal.Log) {
	t.Helper()
	d := disk.New(1 + 2*logEntries + logData)
	l, err := wal.New(d, logEntries)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range base {
		if err := l.Write(e.Addr, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	return d, l
}

// logEntries and logData size the logs the WAL tests mount.
const logEntries, logData = 8, 12

// randomTxn draws up to logEntries writes of small values.
func randomTxn(rng *rand.Rand) []wal.Entry {
	txn := make([]wal.Entry, 1+rng.Intn(logEntries))
	for i := range txn {
		txn[i] = wal.Entry{Addr: rng.Intn(logData), Val: uint64(rng.Intn(6))}
	}
	return txn
}

// replay is Log.v's replay of log over pre, a data region.
func (s *spec) replay(pre *kernel.Term, log []wal.Entry) *kernel.Term {
	es := make([]*kernel.Term, len(log))
	for i, e := range log {
		es[i] = pair(nat(e.Addr), nat(int(e.Val)))
	}
	return s.call("replay", pre, kernel.ListLit(es...))
}

// TestLogConformsToReplay: after Commit, the data region is replay of the
// transaction's writes, in the order they were made, over the data region
// before it. After a crash at every write of Commit, with several
// materializations of the unsynced writes per crash point, and a Recover,
// it is replay of the committed prefix: nothing before the commit point
// (the header write that follows the entries), the whole transaction from
// it on. The check is not vacuous: against the log minus its last entry,
// it reports a mismatch.
func TestLogConformsToReplay(t *testing.T) {
	s := newSpec(t)
	rng := rand.New(rand.NewSource(1))
	data := func(l *wal.Log) *kernel.Term { return natList(readWords(t, l, 0, logData)) }
	const trials, draws = 50, 6
	truncatedMatches := 0
	for trial := 0; trial < trials; trial++ {
		base, txn := randomTxn(rng), randomTxn(rng)
		_, l := newLog(t, base)
		pre := data(l)
		before, after := s.replay(pre, nil), s.replay(pre, txn)
	crashPoints:
		for k := 0; ; k++ {
			for draw := 0; draw < draws; draw++ {
				d, l := newLog(t, base)
				for _, e := range txn {
					if err := l.Write(e.Addr, e.Val); err != nil {
						t.Fatal(err)
					}
				}
				committed, want := txn, after
				if k <= 2*l.Pending() {
					committed, want = nil, before
				}
				d.FailAfter(k)
				err := l.Commit()
				if err == nil {
					if got := data(l); got != after {
						t.Fatalf("trial %d: committed %v over %s, got %s", trial, txn, pre, got)
					}
					if s.replay(pre, txn[:len(txn)-1]) == after {
						truncatedMatches++
					}
					break crashPoints
				}
				if !errors.Is(err, disk.ErrCrashed) {
					t.Fatalf("trial %d crash at write %d: commit: %v", trial, k, err)
				}
				rl, err := wal.Recover(d.Crash(rand.New(rand.NewSource(int64(draws*k+draw)))), logEntries)
				if err != nil {
					t.Fatal(err)
				}
				if got := data(rl); got != want {
					t.Fatalf("trial %d crash at write %d, draw %d: committed %v over %s, recovered %s", trial, k, draw, committed, pre, got)
				}
			}
		}
	}
	if truncatedMatches == trials {
		t.Fatal("replay of the log minus its last entry matched every commit: the check is vacuous")
	}
}

// TestAllocConformsToSpec: over a random interleaving of Alloc and Free,
// Alloc returns the block Balloc.v's alloc picks from the bitmap (None
// when it is full), count_free counts the blocks not held, and the bitmap
// marks exactly the held blocks.
func TestAllocConformsToSpec(t *testing.T) {
	s := newSpec(t)
	const count = 24
	d := disk.New(1 + 2*count + count)
	l, err := wal.New(d, count)
	if err != nil {
		t.Fatal(err)
	}
	a, err := balloc.New(l, 0, count, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	held := map[int]bool{}
	full := false
	for step := 0; step < 300; step++ {
		bm := bitmap(readWords(t, l, 0, count))
		words := make([]uint64, count)
		for b := range held {
			words[b] = 1
		}
		if bm != bitmap(words) {
			t.Fatalf("step %d: bitmap %s, held %v", step, bm, held)
		}
		if free := s.nat("count_free", bm); free != count-len(held) {
			t.Fatalf("step %d: count_free = %d with %d of %d held", step, free, len(held), count)
		}
		if len(held) > 0 && rng.Intn(5) < 2 {
			b := rng.Intn(count)
			for !held[b] {
				b = (b + 1) % count
			}
			if err := a.Free(b); err != nil {
				t.Fatal(err)
			}
			delete(held, b)
			continue
		}
		want := s.call("alloc", bm)
		b, err := a.Alloc()
		switch {
		case err == balloc.ErrNoSpace && want == none:
			full = true
		case err != nil || want != kernel.A("Some", nat(b)):
			t.Fatalf("step %d: Alloc = %d, %v; alloc = %s", step, b, err, want)
		default:
			held[b] = true
		}
		if err := l.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if !full {
		t.Fatal("the allocator never filled up")
	}
}
