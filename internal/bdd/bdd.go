// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) in the style of Brace–Rudell–Bryant and of the CMU BDD
// library the paper builds on: complement edges with a single terminal
// and the canonical "regular then-edge" form, a node arena with an
// embedded-chain unique table, a two-way set-associative ITE operation
// cache, an n-ary apply for wide conjunctions/disjunctions, external
// reference counting, mark-sweep garbage collection with free-list
// reuse, a configurable node limit, and peak-occupancy tracking (the
// paper's "ROBDD peak" column).
//
// # Complement edges
//
// A Node handle packs an arena index and a complement bit: the handle
// idx<<1|1 denotes the pointwise negation of the function stored at
// idx<<1. Only one terminal node is stored (the constant-false
// function); True is its complemented handle, so Not is a single bit
// flip and a function and its negation share every node. Canonical
// form follows CUDD: a stored node's then-edge (Hi) is always regular
// (complement bits are pushed onto the else-edge and the handle), so
// for a fixed order equivalent functions are represented by the same
// handle. The accessors (Lo, Hi, Level, Eval, ...) resolve polarity
// transparently; callers never need to inspect the complement bit.
// WithoutComplementEdges selects a classic two-terminal-style engine
// (used by equivalence tests and ablation benchmarks); its handles
// keep the complement bit only on the True terminal.
//
// Variables are identified by their level in the fixed total order,
// 0 .. NumVars-1; mapping from named problem variables to levels is the
// caller's concern (package order computes such orders). All
// operations keep diagrams canonical: for a fixed order, equivalent
// functions are represented by the same Node.
package bdd

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Node is a handle to a BDD node owned by a Manager: an arena index in
// the high bits and a complement bit in bit 0. Handles are only
// meaningful with the Manager that produced them. The zero Node is the
// False terminal.
type Node int32

// Terminal nodes, shared by every manager. The arena stores a single
// terminal (the constant-false function); True is its complement.
const (
	False Node = 0
	True  Node = 1
)

// ErrNodeLimit is returned when an operation would grow the manager
// past its configured node limit. It reproduces the memory-exhaustion
// failures ("—" entries) of the paper under a portable budget.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// node is one arena slot. lo is the cofactor handle for the level
// variable at 0, hi at 1; hi is always regular (canonical form). next
// chains the unique-table bucket. A free slot has level == freeLevel
// and lo chaining the free list (as a raw arena index).
type node struct {
	level int32
	lo    Node
	hi    Node
	next  int32
}

const (
	nilIdx    = int32(-1)
	freeLevel = int32(-2)
)

// Manager owns an ROBDD arena for a fixed number of variables.
type Manager struct {
	nodes      []node
	refs       []int32
	buckets    []int32
	numVars    int32
	complement bool // CUDD-style complement edges (default on)
	free       int32
	freeCount  int
	live       int
	peakLive   int
	limit      int
	cache      []cacheEntry // 2-way set-associative: entries 2i, 2i+1 form one set
	cacheMask  uint32       // number of sets - 1
	gcCount    int
	autoGCAt   int
	stamp      []int32 // per-arena-index visitation stamps for traversals
	stampGen   int32
	memoNode   []Node    // per-arena-index result memo (Restrict)
	memoFrac   []float64 // per-arena-index result memo (SatFraction)
	naryBuf    []Node    // operand scratch for the n-ary apply
	limitHit   bool
	// Instrumentation totals, maintained as plain fields because
	// construction is single-threaded by contract; Stats snapshots them.
	cacheHits    int64
	cacheMisses  int64
	uniqueHits   int64
	nodesCreated int64
	tableGrowths int64
	gcFreed      int64
}

type cacheEntry struct {
	f, g, h Node
	result  Node
	op      int32
}

const (
	opNone int32 = 0
	opITE  int32 = 1
)

// Option configures a Manager.
type Option func(*Manager)

// WithNodeLimit bounds the number of simultaneously live stored nodes.
// When an operation would exceed it, the operation fails with
// ErrNodeLimit. A limit of 0 (the default) means unlimited.
func WithNodeLimit(n int) Option {
	return func(m *Manager) { m.limit = n }
}

// WithInitialCapacity pre-sizes the arena.
func WithInitialCapacity(n int) Option {
	return func(m *Manager) {
		if n > len(m.nodes) {
			m.nodes = append(make([]node, 0, n), m.nodes...)
			m.refs = append(make([]int32, 0, n), m.refs...)
		}
	}
}

// WithoutComplementEdges disables complement-edge canonicalization:
// every internal node handle is regular and Not rebuilds the diagram
// recursively, as in a classic two-terminal engine. Results are
// function-identical to the default engine (both are canonical); node
// counts and construction cost differ. Intended for equivalence tests
// and ablation benchmarks.
func WithoutComplementEdges() Option {
	return func(m *Manager) { m.complement = false }
}

// New creates a manager for numVars boolean variables at levels
// 0 .. numVars-1.
func New(numVars int, opts ...Option) *Manager {
	if numVars < 0 {
		panic(fmt.Sprintf("bdd: negative variable count %d", numVars))
	}
	m := &Manager{
		numVars:    int32(numVars),
		complement: true,
		free:       nilIdx,
	}
	// The single terminal occupies arena slot 0. Terminal level is
	// numVars so that every internal level compares below it.
	m.nodes = append(m.nodes, node{level: m.numVars, next: nilIdx})
	m.refs = append(m.refs, 1) // permanently referenced
	m.live = 1
	m.peakLive = 1
	m.resizeBuckets(1 << 10)
	m.resizeCache(1 << 12)
	m.autoGCAt = 1 << 16
	for _, o := range opts {
		o(m)
	}
	return m
}

// NumVars returns the number of variables the manager was created with.
func (m *Manager) NumVars() int { return int(m.numVars) }

// Live returns the number of live (allocated, not freed) stored nodes,
// including the terminal.
func (m *Manager) Live() int { return m.live }

// PeakLive returns the high-water mark of Live since the manager was
// created or ResetPeakLive was last called: the paper's "peak number
// of ROBDD nodes".
func (m *Manager) PeakLive() int { return m.peakLive }

// ResetPeakLive returns the current peak and restarts peak tracking
// from the current live count. Callers use it to attribute the
// high-water mark to pipeline phases (compile vs convert) instead of
// one number per manager lifetime.
func (m *Manager) ResetPeakLive() int {
	p := m.peakLive
	m.peakLive = m.live
	return p
}

// GCs returns the number of garbage collections performed.
func (m *Manager) GCs() int { return m.gcCount }

// NodeBound returns an exclusive upper bound on the integer value of
// every Node handle this manager has issued (including complemented
// handles). Callers use it to size handle-indexed scratch slices for
// map-free memoization of traversals.
func (m *Manager) NodeBound() int { return 2 * len(m.nodes) }

// Stats is a point-in-time snapshot of the manager's internal
// instrumentation: the ITE operation cache, the unique table, node
// occupancy, and garbage collection. Counting uses plain (non-atomic)
// fields on the construction path, so it is effectively free; Stats
// must be called from the constructing goroutine or after construction
// has finished.
type Stats struct {
	// Live and PeakLive are current and peak live stored-node counts
	// (including the terminal).
	Live     int
	PeakLive int
	// ArenaNodes is the arena length (live + free-listed slots).
	ArenaNodes int
	// UniqueTableBuckets is the current unique-table bucket count;
	// UniqueTableGrowths how many times it doubled.
	UniqueTableBuckets int
	UniqueTableGrowths int64
	// UniqueTableHits counts mk calls answered by an existing node;
	// NodesCreated counts fresh node allocations.
	UniqueTableHits int64
	NodesCreated    int64
	// ApplyCacheHits/Misses count ITE operation-cache lookups. The
	// cache is lossy, so Misses includes evictions.
	ApplyCacheHits   int64
	ApplyCacheMisses int64
	ApplyCacheSize   int
	// GCs counts garbage collections, GCFreed the total nodes freed.
	GCs     int
	GCFreed int64
}

// Stats returns the current instrumentation snapshot.
func (m *Manager) Stats() Stats {
	return Stats{
		Live:               m.live,
		PeakLive:           m.peakLive,
		ArenaNodes:         len(m.nodes),
		UniqueTableBuckets: len(m.buckets),
		UniqueTableGrowths: m.tableGrowths,
		UniqueTableHits:    m.uniqueHits,
		NodesCreated:       m.nodesCreated,
		ApplyCacheHits:     m.cacheHits,
		ApplyCacheMisses:   m.cacheMisses,
		ApplyCacheSize:     len(m.cache),
		GCs:                m.gcCount,
		GCFreed:            m.gcFreed,
	}
}

func (m *Manager) resizeBuckets(n int) {
	m.buckets = make([]int32, n)
	for i := range m.buckets {
		m.buckets[i] = nilIdx
	}
	for i := 1; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if nd.level == freeLevel {
			continue
		}
		b := m.bucketOf(nd.level, nd.lo, nd.hi)
		nd.next = m.buckets[b]
		m.buckets[b] = int32(i)
	}
}

// ReleaseTables drops the tables only construction needs: the ITE
// operation cache, the unique-table buckets and the traversal scratch
// (visitation stamps, memo slices, the n-ary operand buffer). The
// arena, the reference counts and every issued handle stay valid, so
// read-only traversals (Level, Lo, Hi, Eval, Size, SatFraction, ...)
// keep working; they re-grow their scratch on demand. Any later
// operation that creates nodes (Var, ITE, And, Or, Restrict, GC, ...)
// first rebuilds the unique table by rehashing the arena, so it finds
// the same canonical nodes and returns the same handles as before the
// release; only the ITE cache starts cold.
//
// Callers use it between compilation and a read-only phase such as
// ROMDD conversion, where these tables — a cache entry and a bucket
// per arena slot, plus one stamp per slot — would otherwise stay live
// for no benefit.
func (m *Manager) ReleaseTables() {
	m.buckets = nil
	m.cache = nil
	m.cacheMask = 0
	m.stamp = nil
	m.stampGen = 0
	m.memoNode = nil
	m.memoFrac = nil
	m.naryBuf = nil
}

// ensureTables rebuilds the unique table and the ITE cache after
// ReleaseTables, sized as mk would have grown them for the current
// arena. Every entry point that can reach mk or the cache calls it.
func (m *Manager) ensureTables() {
	if m.buckets != nil {
		return
	}
	n := 1 << 10
	for n < len(m.nodes) {
		n <<= 1
	}
	m.resizeBuckets(n)
	m.resizeCache(max(n, 1<<12))
}

// resizeCache sizes the ITE cache to n entries (n/2 two-way sets).
func (m *Manager) resizeCache(n int) {
	m.cache = make([]cacheEntry, n)
	m.cacheMask = uint32(n/2 - 1)
}

func mix(a, b, c uint32) uint32 {
	h := a*0x9e3779b1 ^ b*0x85ebca77 ^ c*0xc2b2ae3d
	h ^= h >> 15
	h *= 0x27d4eb2f
	h ^= h >> 13
	return h
}

func (m *Manager) bucketOf(level int32, lo, hi Node) uint32 {
	return mix(uint32(level), uint32(lo), uint32(hi)) & uint32(len(m.buckets)-1)
}

// mk returns the canonical node (level, lo, hi) over child handles,
// creating it if needed. With complement edges it enforces the
// regular-then-edge form: a complemented hi is pushed onto both
// children and the returned handle. It panics with errLimitPanic when
// the node limit is exceeded; the exported entry points recover that
// into ErrNodeLimit.
func (m *Manager) mk(level int32, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	var out Node
	if m.complement && hi&1 != 0 {
		lo ^= 1
		hi ^= 1
		out = 1
	}
	b := m.bucketOf(level, lo, hi)
	for i := m.buckets[b]; i != nilIdx; i = m.nodes[i].next {
		nd := &m.nodes[i]
		if nd.level == level && nd.lo == lo && nd.hi == hi {
			m.uniqueHits++
			return Node(i<<1) | out
		}
	}
	if m.limit > 0 && m.live >= m.limit {
		m.limitHit = true
		panic(errLimitPanic{})
	}
	var idx int32
	if m.free != nilIdx {
		idx = m.free
		m.free = int32(m.nodes[idx].lo)
		m.freeCount--
	} else {
		idx = int32(len(m.nodes))
		m.nodes = append(m.nodes, node{})
		m.refs = append(m.refs, 0)
		if len(m.nodes) > len(m.buckets) {
			m.tableGrowths++
			m.resizeBuckets(len(m.buckets) * 2)
			if len(m.cache) < len(m.buckets) {
				m.resizeCache(len(m.buckets))
			}
			b = m.bucketOf(level, lo, hi)
		}
	}
	m.nodes[idx] = node{level: level, lo: lo, hi: hi, next: m.buckets[b]}
	m.refs[idx] = 0
	m.buckets[b] = idx
	m.nodesCreated++
	m.live++
	if m.live > m.peakLive {
		m.peakLive = m.live
	}
	return Node(idx<<1) | out
}

type errLimitPanic struct{}

// guard converts the internal node-limit panic into ErrNodeLimit.
func (m *Manager) guard(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(errLimitPanic); ok {
			*err = ErrNodeLimit
			return
		}
		panic(r)
	}
}

// Var returns the function of the single variable at the given level.
func (m *Manager) Var(level int) (Node, error) {
	if level < 0 || int32(level) >= m.numVars {
		return False, fmt.Errorf("bdd: variable level %d out of range [0,%d)", level, m.numVars)
	}
	m.ensureTables()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.mk(int32(level), False, True)
	}()
	return out, err
}

// NVar returns the negation of the variable at the given level.
func (m *Manager) NVar(level int) (Node, error) {
	if level < 0 || int32(level) >= m.numVars {
		return False, fmt.Errorf("bdd: variable level %d out of range [0,%d)", level, m.numVars)
	}
	m.ensureTables()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.mk(int32(level), True, False)
	}()
	return out, err
}

// Level returns the variable level of n, or NumVars() for terminals.
func (m *Manager) Level(n Node) int { return int(m.nodes[n>>1].level) }

// Lo returns the cofactor of n with its top variable set to 0,
// resolving the handle's polarity. n must not be a terminal.
func (m *Manager) Lo(n Node) Node { return m.nodes[n>>1].lo ^ (n & 1) }

// Hi returns the cofactor of n with its top variable set to 1,
// resolving the handle's polarity. n must not be a terminal.
func (m *Manager) Hi(n Node) Node { return m.nodes[n>>1].hi ^ (n & 1) }

// IsTerminal reports whether n is False or True.
func (m *Manager) IsTerminal(n Node) bool { return n <= True }

// Ref adds an external reference to n, protecting it (and everything
// reachable from it) across garbage collections. References are held
// on the stored node, so a function and its complement share them. It
// returns n for chaining.
func (m *Manager) Ref(n Node) Node {
	if n > True {
		m.refs[n>>1]++
	}
	return n
}

// Deref removes an external reference added by Ref.
func (m *Manager) Deref(n Node) {
	if n > True {
		if m.refs[n>>1] == 0 {
			panic(fmt.Sprintf("bdd: Deref of unreferenced node %d", n))
		}
		m.refs[n>>1]--
	}
}

func (m *Manager) cofactor(n Node, level int32) (lo, hi Node) {
	nd := &m.nodes[n>>1]
	if nd.level == level {
		c := n & 1
		return nd.lo ^ c, nd.hi ^ c
	}
	return n, n
}

func min3(a, b, c int32) int32 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// regIdx orders handles by stored node, ignoring polarity — the
// deterministic tie-break used by the ITE argument normalizations.
func regIdx(n Node) Node { return n >> 1 }

// ite computes if-then-else(f, g, h) with the standard
// Brace–Rudell–Bryant normalizations. With complement edges the cache
// key is fully canonical: equivalent argument orders collapse, the
// first argument and the then-argument are regular, and the output
// complement is carried outside the cache.
func (m *Manager) ite(f, g, h Node) Node {
	// Terminal and identity simplifications.
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	}
	// Replace arguments equal to f (or its complement) by constants.
	if g == f {
		g = True
	}
	if h == f {
		h = False
	}
	if m.complement {
		if g == f^1 {
			g = False
		}
		if h == f^1 {
			h = True
		}
	}
	switch {
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	if m.complement && g == False && h == True {
		return f ^ 1 // O(1) negation
	}
	// Commutative normalizations: pick one representative among the
	// equivalent argument orders (compare by stored node so both
	// polarities of a pair normalize identically).
	if g == True { // f ∨ h = ITE(h, 1, f)
		if regIdx(f) > regIdx(h) {
			f, h = h, f
		}
	} else if h == False { // f ∧ g = ITE(g, f, 0)
		if regIdx(f) > regIdx(g) {
			f, g = g, f
		}
	} else if m.complement {
		switch {
		case h == True: // f → g = ITE(¬g, ¬f, 1)
			if regIdx(f) > regIdx(g) {
				f, g = g^1, f^1
			}
		case g == False: // ¬f ∧ h = ITE(¬h, 0, ¬f)
			if regIdx(f) > regIdx(h) {
				f, h = h^1, f^1
			}
		case g == h^1: // f ≡ g = ITE(g, f, ¬f)
			if regIdx(f) > regIdx(g) {
				f, g = g, f
				h = g ^ 1
			}
		}
	}
	var out Node
	if m.complement {
		// Canonical polarity: regular first argument, regular
		// then-argument; the output complement rides on the result.
		if f&1 != 0 {
			f ^= 1
			g, h = h, g
		}
		if g&1 != 0 {
			g ^= 1
			h ^= 1
			out = 1
		}
	}
	set := (mix(uint32(f), uint32(g), uint32(h)) & m.cacheMask) * 2
	s0, s1 := &m.cache[set], &m.cache[set+1]
	if s0.op == opITE && s0.f == f && s0.g == g && s0.h == h {
		m.cacheHits++
		return s0.result ^ out
	}
	if s1.op == opITE && s1.f == f && s1.g == g && s1.h == h {
		m.cacheHits++
		// Promote the hit to the primary way.
		*s0, *s1 = *s1, *s0
		return s0.result ^ out
	}
	m.cacheMisses++
	top := min3(m.nodes[f>>1].level, m.nodes[g>>1].level, m.nodes[h>>1].level)
	f0, f1 := m.cofactor(f, top)
	g0, g1 := m.cofactor(g, top)
	h0, h1 := m.cofactor(h, top)
	lo := m.ite(f0, g0, h0)
	hi := m.ite(f1, g1, h1)
	r := m.mk(top, lo, hi)
	// Insert into the primary way, demoting its previous occupant.
	*s1 = *s0
	*s0 = cacheEntry{f: f, g: g, h: h, result: r, op: opITE}
	return r ^ out
}

// ITE returns if-then-else(f, g, h) = (f∧g) ∨ (¬f∧h).
func (m *Manager) ITE(f, g, h Node) (Node, error) {
	m.ensureTables()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.ite(f, g, h)
	}()
	return out, err
}

// Not returns the complement of f. With complement edges this is a
// single bit flip; without them the diagram is rebuilt via ITE.
func (m *Manager) Not(f Node) (Node, error) {
	if m.complement {
		return f ^ 1, nil
	}
	return m.ITE(f, False, True)
}

const (
	naryAnd = iota
	naryOr
)

// prepNary normalizes an operand list for the n-ary apply in place:
// dominant and neutral terminals are resolved, duplicates collapse,
// and (with complement edges) a complementary pair short-circuits the
// whole operation. It returns the compacted list and ok=false when the
// result is already the dominant terminal.
func (m *Manager) prepNary(buf []Node, op int) ([]Node, bool) {
	neutral, dominant := Node(True), Node(False)
	if op == naryOr {
		neutral, dominant = False, True
	}
	k := 0
	for _, f := range buf {
		if f == dominant {
			return buf[:0], false
		}
		if f == neutral {
			continue
		}
		buf[k] = f
		k++
	}
	buf = buf[:k]
	slices.Sort(buf)
	buf = slices.Compact(buf)
	if m.complement {
		for i := 0; i+1 < len(buf); i++ {
			// Sorted handles place a function next to its complement.
			if buf[i]^buf[i+1] == 1 {
				return buf[:0], false // x ∧ ¬x = 0,  x ∨ ¬x = 1
			}
		}
	}
	return buf, true
}

// applyNary conjoins (or disjoins) the operands by balanced pairwise
// reduction through the ITE cache, renormalizing between rounds and
// terminating early as soon as the dominant terminal appears. Compared
// with a left fold this keeps intermediate results shallow (log-depth)
// and lets absorbed or duplicate partial products collapse between
// rounds — the n-ary apply used for wide gate fan-ins.
func (m *Manager) applyNary(fs []Node, op int) Node {
	neutral, dominant := Node(True), Node(False)
	if op == naryOr {
		neutral, dominant = False, True
	}
	buf := m.naryBuf[:0]
	buf = append(buf, fs...)
	var ok bool
	for {
		if buf, ok = m.prepNary(buf, op); !ok {
			m.naryBuf = buf
			return dominant
		}
		switch len(buf) {
		case 0:
			m.naryBuf = buf
			return neutral
		case 1:
			r := buf[0]
			m.naryBuf = buf
			return r
		}
		k := 0
		for i := 0; i+1 < len(buf); i += 2 {
			var r Node
			if op == naryAnd {
				r = m.ite(buf[i], buf[i+1], False)
			} else {
				r = m.ite(buf[i], True, buf[i+1])
			}
			if r == dominant {
				m.naryBuf = buf[:0]
				return dominant
			}
			buf[k] = r
			k++
		}
		if len(buf)%2 == 1 {
			buf[k] = buf[len(buf)-1]
			k++
		}
		buf = buf[:k]
	}
}

// And returns the conjunction of the arguments (True when empty) via
// the n-ary apply.
func (m *Manager) And(fs ...Node) (Node, error) {
	m.ensureTables()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.applyNary(fs, naryAnd)
	}()
	if err != nil {
		return False, err
	}
	return out, nil
}

// Or returns the disjunction of the arguments (False when empty) via
// the n-ary apply.
func (m *Manager) Or(fs ...Node) (Node, error) {
	m.ensureTables()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		out = m.applyNary(fs, naryOr)
	}()
	if err != nil {
		return False, err
	}
	return out, nil
}

// Xor returns the exclusive-or of f and g.
func (m *Manager) Xor(f, g Node) (Node, error) {
	ng, err := m.Not(g)
	if err != nil {
		return False, err
	}
	return m.ITE(f, ng, g)
}

// Implies returns f → g.
func (m *Manager) Implies(f, g Node) (Node, error) { return m.ITE(f, g, True) }

// Equiv returns f ↔ g.
func (m *Manager) Equiv(f, g Node) (Node, error) {
	ng, err := m.Not(g)
	if err != nil {
		return False, err
	}
	return m.ITE(f, g, ng)
}

// Restrict returns f with the variable at the given level fixed to val.
func (m *Manager) Restrict(f Node, level int, val bool) (Node, error) {
	if level < 0 || int32(level) >= m.numVars {
		return False, fmt.Errorf("bdd: variable level %d out of range [0,%d)", level, m.numVars)
	}
	m.ensureTables()
	var out Node
	var err error
	func() {
		defer m.guard(&err)
		// Arena-indexed memo over the nodes that exist on entry; the
		// recursion only descends into those, so nodes mk creates along
		// the way never index the scratch slices.
		gen := m.nextStamp()
		if len(m.memoNode) < len(m.stamp) {
			m.memoNode = make([]Node, len(m.stamp))
		}
		out = m.restrict(f, int32(level), val, gen)
	}()
	return out, err
}

// restrict memoizes per stored node and re-applies the handle's
// polarity on the way out: restrict(¬f) = ¬restrict(f).
func (m *Manager) restrict(f Node, level int32, val bool, gen int32) Node {
	nd := &m.nodes[f>>1]
	if nd.level > level {
		return f
	}
	c := f & 1
	if nd.level == level {
		if val {
			return nd.hi ^ c
		}
		return nd.lo ^ c
	}
	idx := f >> 1
	if m.stamp[idx] == gen {
		return m.memoNode[idx] ^ c
	}
	r := m.mk(nd.level, m.restrict(nd.lo, level, val, gen), m.restrict(nd.hi, level, val, gen))
	m.stamp[idx] = gen
	m.memoNode[idx] = r
	return r ^ c
}

// Exists existentially quantifies the variables at the given levels
// out of f.
func (m *Manager) Exists(f Node, levels ...int) (Node, error) {
	out := f
	for _, lv := range levels {
		lo, err := m.Restrict(out, lv, false)
		if err != nil {
			return False, err
		}
		hi, err := m.Restrict(out, lv, true)
		if err != nil {
			return False, err
		}
		out, err = m.Or(lo, hi)
		if err != nil {
			return False, err
		}
	}
	return out, nil
}

// Eval evaluates f under the assignment (assign[level] is the value of
// the variable at that level; missing trailing levels read as false).
func (m *Manager) Eval(f Node, assign []bool) bool {
	for !m.IsTerminal(f) {
		c := f & 1
		nd := &m.nodes[f>>1]
		if int(nd.level) < len(assign) && assign[nd.level] {
			f = nd.hi ^ c
		} else {
			f = nd.lo ^ c
		}
	}
	return f == True
}

func (m *Manager) nextStamp() int32 {
	if len(m.stamp) < len(m.nodes) {
		m.stamp = make([]int32, len(m.nodes))
		m.stampGen = 0
	}
	m.stampGen++
	return m.stampGen
}

// Size returns the number of stored nodes in the diagram rooted at f,
// including the terminal when it is reached. A function and its
// complement share all nodes, so Size(f) == Size(¬f).
func (m *Manager) Size(f Node) int {
	gen := m.nextStamp()
	return m.sizeRec(f>>1, gen)
}

// SizeShared returns the number of distinct stored nodes reachable
// from any of the given roots (diagram sharing counted once).
func (m *Manager) SizeShared(roots []Node) int {
	gen := m.nextStamp()
	total := 0
	for _, r := range roots {
		total += m.sizeRec(r>>1, gen)
	}
	return total
}

func (m *Manager) sizeRec(idx Node, gen int32) int {
	if m.stamp[idx] == gen {
		return 0
	}
	m.stamp[idx] = gen
	if idx == 0 {
		return 1
	}
	nd := &m.nodes[idx]
	return 1 + m.sizeRec(nd.lo>>1, gen) + m.sizeRec(nd.hi>>1, gen)
}

// Support returns the sorted levels of the variables f depends on.
func (m *Manager) Support(f Node) []int {
	gen := m.nextStamp()
	seen := make([]bool, m.numVars)
	m.supportRec(f>>1, gen, seen)
	out := make([]int, 0, len(seen))
	for lv, s := range seen {
		if s {
			out = append(out, lv)
		}
	}
	return out
}

func (m *Manager) supportRec(idx Node, gen int32, seen []bool) {
	if idx == 0 || m.stamp[idx] == gen {
		return
	}
	m.stamp[idx] = gen
	nd := &m.nodes[idx]
	seen[nd.level] = true
	m.supportRec(nd.lo>>1, gen, seen)
	m.supportRec(nd.hi>>1, gen, seen)
}

// SatFraction returns the fraction of the 2^NumVars assignments that
// satisfy f. It is exact up to float64 rounding.
func (m *Manager) SatFraction(f Node) float64 {
	gen := m.nextStamp()
	if len(m.memoFrac) < len(m.stamp) {
		m.memoFrac = make([]float64, len(m.stamp))
	}
	return m.satFrac(f, gen)
}

// satFrac memoizes the density of each stored node and resolves the
// handle's polarity on the way out: density(¬f) = 1 − density(f).
func (m *Manager) satFrac(f Node, gen int32) float64 {
	idx := f >> 1
	var v float64
	switch {
	case idx == 0:
		v = 0 // stored terminal is constant false
	case m.stamp[idx] == gen:
		v = m.memoFrac[idx]
	default:
		nd := &m.nodes[idx]
		v = 0.5*m.satFrac(nd.lo, gen) + 0.5*m.satFrac(nd.hi, gen)
		m.stamp[idx] = gen
		m.memoFrac[idx] = v
	}
	if f&1 != 0 {
		return 1 - v
	}
	return v
}

// SatCount returns the number of satisfying assignments of f over all
// NumVars variables, as a float64 (exact for counts below 2^53).
func (m *Manager) SatCount(f Node) float64 {
	return m.SatFraction(f) * math.Pow(2, float64(m.numVars))
}

// GC reclaims every node not reachable from an externally referenced
// node. It returns the number of nodes freed. Operation caches are
// cleared. GC is also run automatically when the arena grows large;
// nodes held only by in-flight operations are never collected because
// operations do not trigger GC internally.
func (m *Manager) GC() int {
	m.ensureTables()
	gen := m.nextStamp()
	// Mark phase: roots are nodes with a positive external refcount.
	for i := 1; i < len(m.nodes); i++ {
		if m.refs[i] > 0 && m.nodes[i].level != freeLevel {
			m.markRec(int32(i), gen)
		}
	}
	m.stamp[0] = gen
	// Sweep phase.
	freed := 0
	for i := 1; i < len(m.nodes); i++ {
		if m.nodes[i].level == freeLevel || m.stamp[i] == gen {
			continue
		}
		m.nodes[i] = node{level: freeLevel, lo: Node(m.free), next: nilIdx}
		m.free = int32(i)
		m.freeCount++
		freed++
	}
	if freed > 0 {
		m.live -= freed
		m.gcFreed += int64(freed)
		m.resizeBuckets(len(m.buckets))
	}
	for i := range m.cache {
		m.cache[i] = cacheEntry{}
	}
	m.gcCount++
	return freed
}

func (m *Manager) markRec(idx int32, gen int32) {
	if m.stamp[idx] == gen {
		return
	}
	m.stamp[idx] = gen
	if idx == 0 {
		return
	}
	nd := &m.nodes[idx]
	m.markRec(int32(nd.lo>>1), gen)
	m.markRec(int32(nd.hi>>1), gen)
}

// MaybeGC runs GC if the arena has grown substantially since the last
// collection. It is intended to be called at safe points (between
// top-level operations, e.g. after compiling each gate).
func (m *Manager) MaybeGC() int {
	if m.live < m.autoGCAt {
		return 0
	}
	freed := m.GC()
	// Back off: grow the threshold so GC amortizes, but collect again
	// soon if most of the arena stayed live.
	if m.live*2 > m.autoGCAt {
		m.autoGCAt = m.live * 2
	}
	return freed
}

// LimitExceeded reports whether any operation has failed with
// ErrNodeLimit since the manager was created.
func (m *Manager) LimitExceeded() bool { return m.limitHit }
