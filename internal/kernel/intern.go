package kernel

// Hash-consing arena for kernel nodes.
//
// Every Term, Form, and Type is built through the constructors in this file
// (the internkernel analyzer rejects raw composite literals everywhere else,
// tests included). Each constructed node carries a precomputed 128-bit
// structural hash (hash/hash2) and a 64-bit bloom signature of the variable
// names occurring in it (varSig, free and bound alike). The hashes make
// structural keys O(1) combines instead of renderings, and the signature
// gives substitution its "this subtree cannot be touched" fast path.
//
// Constructors also deduplicate: every node is looked up in a sharded arena
// by hash and shallow pointer comparison of its (already canonical)
// children, so by induction structurally equal nodes are one pointer.
// Term.Equal and Type.Equal are therefore pointer comparisons, and any pure
// function of a node may be memoized on its pointer.

import (
	"sync"
	"sync/atomic"
)

var internHits, internMisses atomic.Uint64

// InternStats returns cumulative arena hit/miss counters (a hit is a
// constructor call that returned an existing canonical node).
func InternStats() (hits, misses uint64) { return internHits.Load(), internMisses.Load() }

// ---------------------------------------------------------------------------
// Hashing primitives.

const (
	hseedA = 0x9e3779b97f4a7c15
	hseedB = 0xc2b2ae3d27d4eb4f
	hmulA  = 0x100000001b3
	hmulB  = 0x9e3779b97f4a7c15

	// Node-shape tags, absorbed first so shapes cannot collide.
	tagVar    = 0x11
	tagApp    = 0x22
	tagMatch  = 0x33
	tagForm   = 0x44
	tagType   = 0x55
	tagNilA   = 0xa5a5a5a5a5a5a5a5
	tagNilB   = 0x5a5a5a5a5a5a5a5a
	hashOfNil = 0xdeadbeefcafef00d // substitute for a lane-a value of 0
)

// hmix is the splitmix64 finalizer: cheap, well-diffusing.
func hmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// strHash2 hashes a string into two independent lanes (FNV-1a with two
// different multipliers).
func strHash2(s string) (uint64, uint64) {
	a := uint64(14695981039346656037)
	b := uint64(0x84222325cbf29ce4)
	for i := 0; i < len(s); i++ {
		c := uint64(s[i])
		a = (a ^ c) * hmulA
		b = (b ^ c) * hmulB
	}
	return a, b
}

// varBit returns the bloom-signature bit for a variable name.
func varBit(name string) uint64 {
	a, _ := strHash2(name)
	return 1 << (hmix(a) & 63)
}

// nz remaps a lane-a hash of 0 to a fixed value. It is part of every stored
// node hash, and the proof store's outcome keys embed those hashes, so
// dropping it would change persisted keys.
func nz(x uint64) uint64 {
	if x == 0 {
		return hashOfNil
	}
	return x
}

// KeyHasher accumulates words, strings, and sub-keys into a 128-bit
// structural key. Used by the kernel's node hashing and exported so the
// tactic layer can combine node keys into goal/state keys.
type KeyHasher struct{ a, b uint64 }

// NewKeyHasher returns a hasher seeded with a caller-chosen domain tag.
func NewKeyHasher(tag uint64) KeyHasher {
	return KeyHasher{hmix(hseedA ^ tag), hmix(hseedB + tag)}
}

// Word absorbs one 64-bit word into both lanes.
func (h *KeyHasher) Word(x uint64) {
	h.a = hmix(h.a*hmulA ^ x)
	h.b = hmix(h.b*hmulB + x)
}

// Str absorbs a string.
func (h *KeyHasher) Str(s string) {
	a, b := strHash2(s)
	h.Word(a)
	h.Word(b)
}

// Pair absorbs a 128-bit sub-key.
func (h *KeyHasher) Pair(p [2]uint64) {
	h.Word(p[0])
	h.Word(p[1])
}

// Sum returns the accumulated key.
func (h *KeyHasher) Sum() [2]uint64 { return [2]uint64{h.a, h.b} }

// ---------------------------------------------------------------------------
// Structural keys for nodes, computed once by the constructors from the
// children's stored keys.

// termKey returns t's stored structural hash pair and variable signature.
func termKey(t *Term) (a, b, sig uint64) {
	if t == nil {
		return tagNilA, tagNilB, 0
	}
	return t.hash, t.hash2, t.varSig
}

func computeVarKey(name string) (a, b, sig uint64) {
	h := NewKeyHasher(tagVar)
	h.Str(name)
	k := h.Sum()
	return nz(k[0]), k[1], varBit(name)
}

func computeMatchKey(scrut *Term, cases []MatchCase) (a, b, sig uint64) {
	h := NewKeyHasher(tagMatch)
	sa, sb, ssig := termKey(scrut)
	sig = ssig
	h.Word(sa)
	h.Word(sb)
	h.Word(uint64(len(cases)))
	for _, c := range cases {
		pa, pb, psig := termKey(c.Pat)
		ra, rb, rsig := termKey(c.RHS)
		h.Word(pa)
		h.Word(pb)
		h.Word(ra)
		h.Word(rb)
		sig |= psig | rsig
	}
	k := h.Sum()
	return nz(k[0]), k[1], sig
}

// computeAppKey hashes an application with the fields passed separately, so
// the hot mkApp path never stores the caller's argument slice into a
// candidate node (which would force it to the heap; see internApp).
func computeAppKey(fun string, args []*Term) (a, b, sig uint64) {
	h := NewKeyHasher(tagApp)
	h.Str(fun)
	h.Word(uint64(len(args)))
	for _, arg := range args {
		aa, ab, asig := termKey(arg)
		h.Word(aa)
		h.Word(ab)
		sig |= asig
	}
	k := h.Sum()
	return nz(k[0]), k[1], sig
}

// computePredKey hashes a predicate atom with the fields passed separately
// (same motivation as computeAppKey; see internPred). It absorbs the same
// tag and kind prefix as computeFormKey.
func computePredKey(name string, args []*Term) (a, b, sig uint64) {
	h := NewKeyHasher(tagForm)
	h.Word(uint64(FPred))
	h.Str(name)
	h.Word(uint64(len(args)))
	for _, t := range args {
		ta, tb, ts := termKey(t)
		h.Word(ta)
		h.Word(tb)
		sig |= ts
	}
	k := h.Sum()
	return nz(k[0]), k[1], sig
}

// formKey is termKey's analogue for formulas. The stored form hash is the
// STRICT structural hash: it includes quantifier binder names and binder
// types (Form.Equal ignores BType, so forms get no hash-based Equal fast
// path; the strict hash exists to make goal StrictKeys O(#hyps) combines).
func formKey(f *Form) (a, b, sig uint64) {
	if f == nil {
		return tagNilA, tagNilB, 0
	}
	return f.hash, f.hash2, f.varSig
}

// computeFormKey hashes every form shape but FPred (mkPred uses
// computePredKey).
func computeFormKey(f *Form) (a, b, sig uint64) {
	h := NewKeyHasher(tagForm)
	h.Word(uint64(f.Kind))
	switch f.Kind {
	case FTrue, FFalse:
	case FEq:
		a1, b1, s1 := termKey(f.T1)
		a2, b2, s2 := termKey(f.T2)
		h.Word(a1)
		h.Word(b1)
		h.Word(a2)
		h.Word(b2)
		sig = s1 | s2
	case FNot:
		la, lb, ls := formKey(f.L)
		h.Word(la)
		h.Word(lb)
		sig = ls
	case FAnd, FOr, FImpl, FIff:
		la, lb, ls := formKey(f.L)
		ra, rb, rs := formKey(f.R)
		h.Word(la)
		h.Word(lb)
		h.Word(ra)
		h.Word(rb)
		sig = ls | rs
	case FForall, FExists:
		h.Str(f.Binder)
		ta, tb := typeKey(f.BType)
		h.Word(ta)
		h.Word(tb)
		ba, bb, bs := formKey(f.Body)
		h.Word(ba)
		h.Word(bb)
		// Conservative: the binder name is part of the signature, so
		// substitutions that merely shadow it are still walked.
		sig = bs | varBit(f.Binder)
	}
	k := h.Sum()
	return nz(k[0]), k[1], sig
}

// typeKey is termKey's analogue for types (types carry no variable
// signature).
func typeKey(ty *Type) (a, b uint64) {
	if ty == nil {
		return tagNilA, tagNilB
	}
	return ty.hash, ty.hash2
}

func computeTypeKey(ty *Type) (a, b uint64) {
	h := NewKeyHasher(tagType)
	if ty.TVar {
		h.Word(1)
	} else {
		h.Word(2)
	}
	h.Str(ty.Name)
	h.Word(uint64(len(ty.Args)))
	for _, arg := range ty.Args {
		aa, ab := typeKey(arg)
		h.Word(aa)
		h.Word(ab)
	}
	k := h.Sum()
	return nz(k[0]), k[1]
}

// HashKey returns the term's 128-bit structural hash.
func (t *Term) HashKey() [2]uint64 {
	a, b, _ := termKey(t)
	return [2]uint64{a, b}
}

// HashKey returns the formula's 128-bit strict structural hash (includes
// binder names and binder types, matching the concrete rendering).
func (f *Form) HashKey() [2]uint64 {
	a, b, _ := formKey(f)
	return [2]uint64{a, b}
}

// HashKey returns the type's 128-bit structural hash.
func (ty *Type) HashKey() [2]uint64 {
	a, b := typeKey(ty)
	return [2]uint64{a, b}
}

// sig returns the bloom signature of the substitution's domain: a term or
// formula whose varSig does not intersect it cannot be changed by the
// substitution.
func (s Subst) sig() uint64 {
	var m uint64
	for k := range s {
		m |= varBit(k)
	}
	return m
}

// renSig is sig for string renamings.
func renSig(ren map[string]string) uint64 {
	var m uint64
	for k := range ren {
		m |= varBit(k)
	}
	return m
}

// ---------------------------------------------------------------------------
// Arenas.
//
// Each shard owns bump chunks of permanent storage: canonical nodes and the
// copies of their child slices live there, appended under the shard mutex and
// never freed (interned nodes are immortal by design). Constructors build
// candidate nodes as stack values and only copy them into a chunk on an arena
// miss, so the common case — a hit — allocates nothing at all, and a miss
// costs amortized one chunk allocation per chunkSize nodes. Because the copy
// happens on miss, constructors never retain caller-owned argument slices:
// callers (and the variadic A/Pred helpers) may reuse or stack-allocate them.

const (
	arenaShards = 256
	// nodeChunk is the bump-chunk length for node storage; argChunk for the
	// pooled child-pointer storage backing Args copies.
	nodeChunk = 128
	argChunk  = 512
)

type termShard struct {
	mu    sync.Mutex
	m     map[uint64][]*Term
	nodes []Term
	args  []*Term
}

type formShard struct {
	mu    sync.Mutex
	m     map[uint64][]*Form
	nodes []Form
	args  []*Term
}

type typeShard struct {
	mu    sync.Mutex
	m     map[uint64][]*Type
	nodes []Type
	args  []*Type
}

// newTerm copies candidate t into shard-owned permanent storage. Must be
// called with the shard mutex held.
func (sh *termShard) newTerm(t *Term) *Term {
	if len(sh.nodes) == cap(sh.nodes) {
		sh.nodes = make([]Term, 0, nodeChunk)
	}
	sh.nodes = sh.nodes[:len(sh.nodes)+1]
	n := &sh.nodes[len(sh.nodes)-1]
	n.Var, n.Fun = t.Var, t.Fun
	n.hash, n.hash2, n.varSig = t.hash, t.hash2, t.varSig
	n.Args = sh.copyArgs(t.Args)
	if t.Match != nil {
		n.Match = &MatchExpr{Scrut: t.Match.Scrut, Cases: append([]MatchCase(nil), t.Match.Cases...)}
	}
	return n
}

func (sh *termShard) copyArgs(src []*Term) []*Term {
	if len(src) == 0 {
		return nil
	}
	if cap(sh.args)-len(sh.args) < len(src) {
		c := argChunk
		if c < len(src) {
			c = len(src)
		}
		sh.args = make([]*Term, 0, c)
	}
	n := len(sh.args)
	sh.args = append(sh.args, src...)
	return sh.args[n:len(sh.args):len(sh.args)]
}

func (sh *formShard) newForm(f *Form) *Form {
	if len(sh.nodes) == cap(sh.nodes) {
		sh.nodes = make([]Form, 0, nodeChunk)
	}
	sh.nodes = sh.nodes[:len(sh.nodes)+1]
	n := &sh.nodes[len(sh.nodes)-1]
	n.Kind, n.Pred, n.Binder = f.Kind, f.Pred, f.Binder
	n.T1, n.T2, n.L, n.R = f.T1, f.T2, f.L, f.R
	n.BType, n.Body = f.BType, f.Body
	n.hash, n.hash2, n.varSig = f.hash, f.hash2, f.varSig
	n.Args = sh.copyArgs(f.Args)
	return n
}

func (sh *formShard) copyArgs(src []*Term) []*Term {
	if len(src) == 0 {
		return nil
	}
	if cap(sh.args)-len(sh.args) < len(src) {
		c := argChunk
		if c < len(src) {
			c = len(src)
		}
		sh.args = make([]*Term, 0, c)
	}
	n := len(sh.args)
	sh.args = append(sh.args, src...)
	return sh.args[n:len(sh.args):len(sh.args)]
}

func (sh *typeShard) newType(t *Type) *Type {
	if len(sh.nodes) == cap(sh.nodes) {
		sh.nodes = make([]Type, 0, nodeChunk)
	}
	sh.nodes = sh.nodes[:len(sh.nodes)+1]
	n := &sh.nodes[len(sh.nodes)-1]
	n.Name, n.TVar = t.Name, t.TVar
	n.hash, n.hash2 = t.hash, t.hash2
	n.Args = sh.copyArgs(t.Args)
	return n
}

func (sh *typeShard) copyArgs(src []*Type) []*Type {
	if len(src) == 0 {
		return nil
	}
	if cap(sh.args)-len(sh.args) < len(src) {
		c := argChunk
		if c < len(src) {
			c = len(src)
		}
		sh.args = make([]*Type, 0, c)
	}
	n := len(sh.args)
	sh.args = append(sh.args, src...)
	return sh.args[n:len(sh.args):len(sh.args)]
}

// The arenas are package globals with lazily initialized shard maps, so they
// are usable from package-variable initializers (TypeType, PropType).
var (
	termArena [arenaShards]termShard
	formArena [arenaShards]formShard
	typeArena [arenaShards]typeShard
)

// sameTermShallow compares two hashed nodes by children POINTER equality.
// Correct as a dedup criterion because candidates in the arena have
// canonical children.
func sameTermShallow(a, b *Term) bool {
	if a.hash2 != b.hash2 || a.Var != b.Var || a.Fun != b.Fun {
		return false
	}
	if len(a.Args) != len(b.Args) || (a.Match == nil) != (b.Match == nil) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	if a.Match != nil {
		if a.Match.Scrut != b.Match.Scrut || len(a.Match.Cases) != len(b.Match.Cases) {
			return false
		}
		for i := range a.Match.Cases {
			if a.Match.Cases[i].Pat != b.Match.Cases[i].Pat ||
				a.Match.Cases[i].RHS != b.Match.Cases[i].RHS {
				return false
			}
		}
	}
	return true
}

func sameFormShallow(a, b *Form) bool {
	if a.hash2 != b.hash2 || a.Kind != b.Kind || a.Pred != b.Pred || a.Binder != b.Binder {
		return false
	}
	if a.T1 != b.T1 || a.T2 != b.T2 || a.L != b.L || a.R != b.R ||
		a.BType != b.BType || a.Body != b.Body || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

func sameTypeShallow(a, b *Type) bool {
	if a.hash2 != b.hash2 || a.TVar != b.TVar || a.Name != b.Name || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// internTerm canonicalizes candidate *t, which the caller builds as a stack
// value. On a hit the canonical node is returned and nothing is allocated; on
// a miss the candidate and its Args are copied into storage the node owns, so
// the caller's slices are never retained.
func internTerm(t *Term) *Term {
	sh := &termArena[t.hash&(arenaShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*Term)
	}
	for _, c := range sh.m[t.hash] {
		if sameTermShallow(c, t) {
			sh.mu.Unlock()
			internHits.Add(1)
			return c
		}
	}
	n := sh.newTerm(t)
	sh.m[t.hash] = append(sh.m[t.hash], n)
	sh.mu.Unlock()
	internMisses.Add(1)
	return n
}

func internForm(f *Form) *Form {
	sh := &formArena[f.hash&(arenaShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*Form)
	}
	for _, c := range sh.m[f.hash] {
		if sameFormShallow(c, f) {
			sh.mu.Unlock()
			internHits.Add(1)
			return c
		}
	}
	n := sh.newForm(f)
	sh.m[f.hash] = append(sh.m[f.hash], n)
	sh.mu.Unlock()
	internMisses.Add(1)
	return n
}

func internType(ty *Type) *Type {
	sh := &typeArena[ty.hash&(arenaShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*Type)
	}
	for _, c := range sh.m[ty.hash] {
		if sameTypeShallow(c, ty) {
			sh.mu.Unlock()
			internHits.Add(1)
			return c
		}
	}
	n := sh.newType(ty)
	sh.m[ty.hash] = append(sh.m[ty.hash], n)
	sh.mu.Unlock()
	internMisses.Add(1)
	return n
}

// ---------------------------------------------------------------------------
// Interning constructors. All node construction in the kernel and in client
// packages goes through these (enforced by the internkernel analyzer).

// The constructors build candidates as stack values: internTerm/internForm/
// internType never retain their argument, so neither the candidate nor the
// caller's argument slice escapes on the (overwhelmingly common) hit path.

func mkVar(name string) *Term {
	t := Term{Var: name}
	t.hash, t.hash2, t.varSig = computeVarKey(name)
	return internTerm(&t)
}

func mkApp(fun string, args []*Term) *Term {
	h, h2, sig := computeAppKey(fun, args)
	return internApp(fun, args, h, h2, sig)
}

// internApp is internTerm specialized to applications: the argument slice is
// threaded separately and only its elements are ever stored, so the variadic
// slice built at an A(...) call site (and scratch buffers handed to mkApp)
// provably never escape — the compiler stack-allocates them.
func internApp(fun string, args []*Term, h, h2, sig uint64) *Term {
	sh := &termArena[h&(arenaShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*Term)
	}
	for _, c := range sh.m[h] {
		if sameAppShallow(c, h2, fun, args) {
			sh.mu.Unlock()
			internHits.Add(1)
			return c
		}
	}
	if len(sh.nodes) == cap(sh.nodes) {
		sh.nodes = make([]Term, 0, nodeChunk)
	}
	sh.nodes = sh.nodes[:len(sh.nodes)+1]
	n := &sh.nodes[len(sh.nodes)-1]
	n.Fun = fun
	n.hash, n.hash2, n.varSig = h, h2, sig
	n.Args = sh.copyArgs(args)
	sh.m[h] = append(sh.m[h], n)
	sh.mu.Unlock()
	internMisses.Add(1)
	return n
}

// sameAppShallow is sameTermShallow against an application candidate passed
// as loose fields.
func sameAppShallow(c *Term, h2 uint64, fun string, args []*Term) bool {
	if c.hash2 != h2 || c.Var != "" || c.Fun != fun || c.Match != nil || len(c.Args) != len(args) {
		return false
	}
	for i := range args {
		if c.Args[i] != args[i] {
			return false
		}
	}
	return true
}

func mkMatch(scrut *Term, cases []MatchCase) *Term {
	me := MatchExpr{Scrut: scrut, Cases: cases}
	t := Term{Match: &me}
	t.hash, t.hash2, t.varSig = computeMatchKey(scrut, cases)
	return internTerm(&t)
}

// NewMatch builds a match term (the interning constructor used by the
// parser and resolver; kernel-internal code uses mkMatch directly).
func NewMatch(scrut *Term, cases []MatchCase) *Term { return mkMatch(scrut, cases) }

func finishForm(f *Form) *Form {
	f.hash, f.hash2, f.varSig = computeFormKey(f)
	return internForm(f)
}

func mkPred(name string, args []*Term) *Form {
	h, h2, sig := computePredKey(name, args)
	return internPred(name, args, h, h2, sig)
}

// internPred is internForm specialized to predicate atoms, mirroring
// internApp: the argument slice never escapes.
func internPred(name string, args []*Term, h, h2, sig uint64) *Form {
	sh := &formArena[h&(arenaShards-1)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[uint64][]*Form)
	}
	for _, c := range sh.m[h] {
		if samePredShallow(c, h2, name, args) {
			sh.mu.Unlock()
			internHits.Add(1)
			return c
		}
	}
	if len(sh.nodes) == cap(sh.nodes) {
		sh.nodes = make([]Form, 0, nodeChunk)
	}
	sh.nodes = sh.nodes[:len(sh.nodes)+1]
	n := &sh.nodes[len(sh.nodes)-1]
	n.Kind, n.Pred = FPred, name
	n.hash, n.hash2, n.varSig = h, h2, sig
	n.Args = sh.copyArgs(args)
	sh.m[h] = append(sh.m[h], n)
	sh.mu.Unlock()
	internMisses.Add(1)
	return n
}

func samePredShallow(c *Form, h2 uint64, name string, args []*Term) bool {
	if c.hash2 != h2 || c.Kind != FPred || c.Pred != name || len(c.Args) != len(args) {
		return false
	}
	for i := range args {
		if c.Args[i] != args[i] {
			return false
		}
	}
	return true
}

// mkConn builds FNot (r must be nil) and the binary connectives.
func mkConn(kind FormKind, l, r *Form) *Form {
	return finishForm(&Form{Kind: kind, L: l, R: r})
}

func mkQuant(kind FormKind, binder string, bty *Type, body *Form) *Form {
	return finishForm(&Form{Kind: kind, Binder: binder, BType: bty, Body: body})
}

// Conn builds a unary/binary connective formula by kind (FNot uses L only).
func Conn(kind FormKind, l, r *Form) *Form {
	switch kind {
	case FNot, FAnd, FOr, FImpl, FIff:
		return mkConn(kind, l, r)
	}
	panic("kernel: Conn called with non-connective kind")
}

// Quant builds a quantified formula by kind.
func Quant(kind FormKind, binder string, bty *Type, body *Form) *Form {
	if kind != FForall && kind != FExists {
		panic("kernel: Quant called with non-quantifier kind")
	}
	return mkQuant(kind, binder, bty, body)
}

func mkType(name string, args []*Type, tvar bool) *Type {
	ty := Type{Name: name, Args: args, TVar: tvar}
	ty.hash, ty.hash2 = computeTypeKey(&ty)
	return internType(&ty)
}

// MkType builds a type with an explicit TVar flag (used when rewriting
// parsed types; Ty and TyVar cover the common cases).
func MkType(name string, args []*Type, tvar bool) *Type { return mkType(name, args, tvar) }

// ---------------------------------------------------------------------------
// Alpha-insensitive fingerprint keys.

// fpSink abstracts the byte stream the canonical fingerprint serialization
// is written to: a strings.Builder for the textual form, an fpHash for the
// 128-bit key. Both receive exactly the same bytes, so the key is a hash of
// the textual fingerprint by construction.
type fpSink interface {
	WriteString(s string) (int, error)
	WriteByte(c byte) error
}

// fpHash hashes the fingerprint byte stream into two independent lanes.
type fpHash struct{ a, b uint64 }

func newFPHash() fpHash {
	return fpHash{14695981039346656037, 0x84222325cbf29ce4}
}

func (h *fpHash) WriteString(s string) (int, error) {
	a, b := h.a, h.b
	for i := 0; i < len(s); i++ {
		c := uint64(s[i])
		a = (a ^ c) * hmulA
		b = (b ^ c) * hmulB
	}
	h.a, h.b = a, b
	return len(s), nil
}

func (h *fpHash) WriteByte(c byte) error {
	h.a = (h.a ^ uint64(c)) * hmulA
	h.b = (h.b ^ uint64(c)) * hmulB
	return nil
}

// FingerprintKey returns a 128-bit hash of the formula's canonical
// (alpha-renamed) fingerprint byte stream. Two alpha-equivalent formulas
// have identical keys; distinct formulas collide with probability ~2^-128.
func (f *Form) FingerprintKey() [2]uint64 { return FingerprintKeySeeded(f, nil) }

// fpRenPool recycles the walk's renaming map for unseeded calls. fingerprint
// restores the map exactly around every binder, so a pooled map comes back
// empty and needs no clearing. The map is boxed in a pointer struct so
// Get/Put never allocate for the interface conversion.
type fpRenScratch struct{ m map[string]string }

var fpRenPool = sync.Pool{New: func() any { return &fpRenScratch{m: map[string]string{}} }}

// FingerprintKeySeeded is FingerprintKey with free variables pre-renamed
// through ren (name → replacement name). Seeding the walk's renaming map is
// equivalent to substituting fresh variables first and fingerprinting after:
// the walk renames every binder positionally, so no substituted name can be
// captured. ren is mutated and restored around binders; it is left exactly
// as passed, so callers may reuse one map across calls.
func FingerprintKeySeeded(f *Form, ren map[string]string) [2]uint64 {
	h := newFPHash()
	ctr := 0
	if ren == nil {
		rs := fpRenPool.Get().(*fpRenScratch)
		f.fingerprint(&h, rs.m, &ctr)
		fpRenPool.Put(rs)
	} else {
		f.fingerprint(&h, ren, &ctr)
	}
	return [2]uint64{h.a, h.b}
}
