package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// locklint machine-checks the deadlock discipline the serving core's
// correctness rests on. The lock hierarchy is declared once in source:
//
//	//qosvet:lockorder commitMu < learnStripe.mu < shard.mu < allocMu
//
// reads "commitMu is acquired before (outside of) the stripe mutexes,
// which come before the shard mutexes, which come before allocMu".
// Each token names a lock class by the trailing components of its key:
// a lock class is "pkg.Type.field" for a mutex struct field, "pkg.var"
// for a package-level mutex, or "pkg.Type" for a type that embeds its
// mutex. A token like "commitMu" matches any class whose final
// component is commitMu; "shard.mu" disambiguates mu fields by their
// owning type. The declared order travels as a package fact, so
// packages that import the declaring one inherit the hierarchy.
//
// On top of the order, locklint computes a per-function "locks
// acquired" summary — the set of lock classes a function may take,
// directly or through callees, propagated across package boundaries
// via LockSet object facts — and reports:
//
//	(a) acquiring a lock ranked earlier than one already held,
//	(b) calling a function whose summary acquires a lock ranked
//	    earlier than one already held (the cross-function, and with
//	    facts cross-package, half of the same deadlock),
//	(c) mutex-containing values copied: by-value parameters and
//	    receivers, plain value copies, and range-value copies,
//	(d) Unlock/RUnlock on a path where the lock is not held, and
//	    deferred unlocks in functions that never lock.
//
// Acquiring equally-ranked locks while holding one of the class is
// allowed: the stripe and shard sets are taken instance-wise in index
// order, a discipline ranks cannot express.
var LockLint = &Analyzer{
	Name: "locklint",
	Doc: "enforce the declared //qosvet:lockorder hierarchy across functions and packages, " +
		"flag mutex copies and unmatched unlocks",
	Run:       runLockLint,
	FactTypes: []Fact{&LockSet{}, &LockOrder{}},
}

// LockOrderDirective declares the lock hierarchy in source.
const LockOrderDirective = "//qosvet:lockorder"

// LockSet is the object fact on a function: the lock classes it may
// acquire, directly or transitively, sorted.
type LockSet struct {
	Acquires []string `json:"acquires"`
}

// AFact marks LockSet as a fact.
func (*LockSet) AFact() {}

// LockOrder is the package fact carrying the //qosvet:lockorder chains
// a package declares, in source order.
type LockOrder struct {
	Chains [][]string `json:"chains"`
}

// AFact marks LockOrder as a fact.
func (*LockOrder) AFact() {}

// --- Lock identification ------------------------------------------------

// lockRef identifies one mutex at a use site: a global class key when
// the mutex is a struct field, package variable or embedded mutex, or
// a local object identity otherwise.
type lockRef struct {
	class string       // "pkg.Type.field", "pkg.var", "pkg.Type"; "" for locals
	obj   types.Object // identity when class is ""
}

func (r lockRef) valid() bool { return r.class != "" || r.obj != nil }

// key returns the held-set key for r in the given mode. Read locks
// track separately so RUnlock must match RLock, not Lock.
func (r lockRef) key(read bool) string {
	k := r.class
	if k == "" {
		k = fmt.Sprintf("local:%s@%d", r.obj.Name(), r.obj.Pos())
	}
	if read {
		k += " [r]"
	}
	return k
}

// display is the name used in diagnostics: the class key without its
// package qualifier, or the local variable name.
func (r lockRef) display() string {
	if r.class == "" {
		return r.obj.Name()
	}
	if _, rest, ok := strings.Cut(r.class, "."); ok {
		return rest
	}
	return r.class
}

// lockOp classifies call as a sync.Mutex/sync.RWMutex method call and
// returns the resolved receiver plus the method name (see lockMode).
func lockOp(info *types.Info, call *ast.CallExpr) (ref lockRef, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockRef{}, "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return lockRef{}, "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil || !namedFrom(sig.Recv().Type(), "sync", "Mutex", "RWMutex") {
		return lockRef{}, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return resolveLockExpr(info, sel.X), fn.Name(), true
	}
	return lockRef{}, "", false
}

// lockMode reports whether the mutex method op acquires or releases,
// and whether in read mode. TryLock and TryRLock count as acquisitions
// at the call, checked against the declared order like Lock and RLock:
// the `if !mu.TryLock() { return }; defer mu.Unlock()` shape holds the
// lock on every path that reaches the defer, and a failed attempt's
// branch is left to the path walk like any other conditional hold.
func lockMode(op string) (acquire, read bool) {
	switch op {
	case "Lock", "TryLock":
		return true, false
	case "RLock", "TryRLock":
		return true, true
	case "RUnlock":
		return false, true
	}
	return false, false
}

// resolveLockExpr resolves the receiver expression of a mutex method to
// a lockRef. Index expressions resolve to their container's class: all
// elements of a mutex slice form one class, matching the instance-wise
// acquisition discipline.
func resolveLockExpr(info *types.Info, e ast.Expr) lockRef {
	switch x := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return resolveLockExpr(info, x.X)
	case *ast.IndexExpr:
		return resolveLockExpr(info, x.X)
	case *ast.SelectorExpr:
		v, isVar := info.Uses[x.Sel].(*types.Var)
		if !isVar {
			return lockRef{}
		}
		if v.IsField() {
			if owner := namedClassOf(info, x.X); owner != "" {
				return lockRef{class: owner + "." + x.Sel.Name}
			}
			return lockRef{obj: v}
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockRef{class: v.Pkg().Name() + "." + v.Name()}
		}
		return lockRef{obj: v}
	case *ast.Ident:
		v, isVar := info.Uses[x].(*types.Var)
		if !isVar {
			return lockRef{}
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return lockRef{class: v.Pkg().Name() + "." + v.Name()}
		}
		// A local whose named type embeds its mutex: the type is the
		// lock class. A plain local sync.Mutex keeps object identity.
		if cls := embeddedLockClass(v.Type()); cls != "" {
			return lockRef{class: cls}
		}
		return lockRef{obj: v}
	}
	return lockRef{}
}

// namedClassOf returns "pkg.TypeName" for the (possibly pointer) named
// type of e, or "".
func namedClassOf(info *types.Info, e ast.Expr) string {
	t := typeOf(info, e)
	if t == nil {
		return ""
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// embeddedLockClass returns "pkg.Type" when t is a named non-sync type
// (one that reaches a mutex method through embedding), else "".
func embeddedLockClass(t types.Type) string {
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return ""
	}
	if namedFrom(named, "sync", "Mutex", "RWMutex") {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// --- Rank table ---------------------------------------------------------

// lockRanks is the merged hierarchy: token → rank, lower rank = outer
// lock (acquired first).
type lockRanks struct {
	rank  map[string]int
	chain string // canonical rendering for diagnostics
}

// rankOf resolves a lock class against the declared tokens, preferring
// the most specific (longest) matching token.
func (lr *lockRanks) rankOf(class string) (rank int, tok string, ok bool) {
	if class == "" || lr == nil {
		return 0, "", false
	}
	best := -1
	for t, r := range lr.rank {
		if tokenMatchesClass(t, class) && len(t) > best {
			best, tok, rank, ok = len(t), t, r, true
		}
	}
	return rank, tok, ok
}

// tokenMatchesClass reports whether directive token t names class: the
// token's dot-separated components must equal the class's trailing
// components.
func tokenMatchesClass(t, class string) bool {
	tp := strings.Split(t, ".")
	cp := strings.Split(class, ".")
	if len(tp) > len(cp) {
		return false
	}
	tail := cp[len(cp)-len(tp):]
	for i := range tp {
		if tp[i] != tail[i] {
			return false
		}
	}
	return true
}

// parseLockChains extracts this package's //qosvet:lockorder chains,
// reporting malformed directives.
func parseLockChains(pass *Pass) ([][]string, []token.Pos) {
	var chains [][]string
	var poss []token.Pos
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, LockOrderDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, LockOrderDirective)
				parts := strings.Split(rest, "<")
				var chain []string
				bad := false
				for _, p := range parts {
					tok := strings.TrimSpace(p)
					if tok == "" || strings.ContainsAny(tok, " \t") {
						bad = true
						break
					}
					chain = append(chain, tok)
				}
				if bad || len(chain) < 2 {
					pass.Reportf(c.Pos(), "malformed lockorder directive: want //qosvet:lockorder a < b < c")
					continue
				}
				chains = append(chains, chain)
				poss = append(poss, c.Pos())
			}
		}
	}
	return chains, poss
}

// buildRanks merges the package's own chains with every imported
// LockOrder fact into one rank table. The hierarchy is a single global
// chain; declaring a token at two different positions is reported.
func buildRanks(pass *Pass, own [][]string, ownPos []token.Pos) *lockRanks {
	rank := make(map[string]int)
	conflictAt := func(pos token.Pos, tok string, a, b int) {
		pass.Reportf(pos, "conflicting lock order: %q ranked both %d and %d across lockorder declarations", tok, a, b)
	}
	addChain := func(chain []string, pos token.Pos) {
		for i, tok := range chain {
			if r, seen := rank[tok]; seen && r != i {
				conflictAt(pos, tok, r, i)
				continue
			}
			rank[tok] = i
		}
	}
	for _, pf := range pass.AllPackageFacts() {
		if pf.Pkg == pass.Pkg {
			continue // own chains added below with precise positions
		}
		order, isOrder := pf.Fact.(*LockOrder)
		if !isOrder {
			continue
		}
		pos := token.NoPos
		if len(pass.Files) > 0 {
			pos = pass.Files[0].Pos()
		}
		for _, chain := range order.Chains {
			addChain(chain, pos)
		}
	}
	for i, chain := range own {
		addChain(chain, ownPos[i])
	}
	if len(rank) == 0 {
		return nil
	}
	toks := make([]string, 0, len(rank))
	for t := range rank {
		toks = append(toks, t)
	}
	sort.Slice(toks, func(i, j int) bool {
		if rank[toks[i]] != rank[toks[j]] {
			return rank[toks[i]] < rank[toks[j]]
		}
		return toks[i] < toks[j]
	})
	return &lockRanks{rank: rank, chain: strings.Join(toks, " < ")}
}

// --- Acquisition summaries (the call-graph pass) ------------------------

// funcSummary is the per-function acquisition info feeding the LockSet
// fact: direct acquisitions plus same-package callees to propagate
// through, with the transitive closure accumulated in all.
type funcSummary struct {
	all   map[string]bool
	calls map[*types.Func]bool
}

// buildSummaries computes, for every function declared in the package,
// the set of lock classes it may acquire — directly, through
// same-package callees (fixpoint over the package call graph), or
// through imported callees' LockSet facts. Goroutine bodies are
// excluded: a lock taken asynchronously is not acquired by the caller.
func buildSummaries(pass *Pass) map[*types.Func]*funcSummary {
	info := pass.TypesInfo
	sums := make(map[*types.Func]*funcSummary)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			fn, isFn := info.Defs[fd.Name].(*types.Func)
			if !isFn {
				continue
			}
			s := &funcSummary{all: make(map[string]bool), calls: make(map[*types.Func]bool)}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, isGo := n.(*ast.GoStmt); isGo {
					return false
				}
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return true
				}
				if ref, op, isLock := lockOp(info, call); isLock {
					if acquire, _ := lockMode(op); acquire && ref.class != "" {
						s.all[ref.class] = true
					}
					return true
				}
				if callee := calleeFunc(info, call); callee != nil {
					s.calls[callee] = true
				}
				return true
			})
			sums[fn] = s
		}
	}

	// Seed cross-package callee facts once, then run the intra-package
	// fixpoint until no summary grows.
	for _, s := range sums {
		for callee := range s.calls {
			if _, samePkg := sums[callee]; samePkg {
				continue
			}
			var fact LockSet
			if pass.ImportObjectFact(callee, &fact) {
				for _, c := range fact.Acquires {
					s.all[c] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sums {
			for callee := range s.calls {
				cs, samePkg := sums[callee]
				if !samePkg {
					continue
				}
				for c := range cs.all {
					if !s.all[c] {
						s.all[c] = true
						changed = true
					}
				}
			}
		}
	}
	return sums
}

// calleeFunc resolves a call to the function or method it invokes, or
// nil for builtins, conversions and function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// acquiresOf returns the lock classes fn may acquire: the in-package
// summary, or the imported LockSet fact.
func (lc *lockChecker) acquiresOf(fn *types.Func) []string {
	if s, samePkg := lc.sums[fn]; samePkg {
		out := make([]string, 0, len(s.all))
		for c := range s.all {
			out = append(out, c)
		}
		sort.Strings(out)
		return out
	}
	var fact LockSet
	if lc.pass.ImportObjectFact(fn, &fact) {
		return fact.Acquires
	}
	return nil
}

// --- Path-sensitive checking -------------------------------------------

// heldEntry is one held lock class on the current path.
type heldEntry struct {
	count   int
	display string
	tok     string
	rank    int
	ranked  bool
}

// lockState is the may-held set along one path. Branch merges take the
// per-key maximum count: "may be held" avoids false unmatched-unlock
// reports on conditional locking, at the cost of missing inversions
// that need mutually-exclusive branches to line up — a trade the
// fixtures pin.
type lockState struct {
	held map[string]heldEntry
}

func newLockState() *lockState { return &lockState{held: make(map[string]heldEntry)} }

func (st *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range st.held {
		c.held[k] = v
	}
	return c
}

func (st *lockState) mergeFrom(other *lockState) {
	for k, v := range other.held {
		cur, have := st.held[k]
		if !have || v.count > cur.count {
			st.held[k] = v
		}
	}
}

// lockChecker carries the per-package check context.
type lockChecker struct {
	pass  *Pass
	ranks *lockRanks
	sums  map[*types.Func]*funcSummary
}

// deferredOp is one deferred effect replayed at function exit.
type deferredOp struct {
	pos  token.Pos
	ref  lockRef // unlock target; nil ref when lit is set
	read bool
	lit  *ast.FuncLit
}

// funcCtx is the walk context of one function body.
type funcCtx struct {
	lc            *lockChecker
	deferred      []deferredOp
	locksAnywhere map[string]bool             // keys this function acquires somewhere
	methodVals    map[types.Object]deferredOp // ident → bound unlock method value
	pendingLits   []*ast.FuncLit              // literals to analyze as fresh functions
}

// checkFunc walks one function body, tracking the may-held set.
func (lc *lockChecker) checkFunc(body *ast.BlockStmt) {
	fc := &funcCtx{
		lc:            lc,
		locksAnywhere: make(map[string]bool),
		methodVals:    make(map[types.Object]deferredOp),
	}
	// Pre-scan every acquisition key (including ones inside closures)
	// so deferred unlocks can be judged position-independently.
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if ref, op, isLock := lockOp(lc.pass.TypesInfo, call); isLock && ref.valid() {
			if acquire, read := lockMode(op); acquire {
				fc.locksAnywhere[ref.key(read)] = true
			}
		}
		return true
	})

	st := newLockState()
	fc.walkStmt(body, st)

	// Replay deferred effects at exit, LIFO. Deferred unlocks of locks
	// this function never takes are unmatched; deferred literals see
	// the exit-path state (the commitLocked shape: stripes locked in a
	// loop, unlocked by one deferred closure).
	for i := len(fc.deferred) - 1; i >= 0; i-- {
		d := fc.deferred[i]
		if d.lit != nil {
			fc.walkStmt(d.lit.Body, st)
			continue
		}
		key := d.ref.key(d.read)
		if !fc.locksAnywhere[key] {
			op, match := "Unlock", "Lock"
			if d.read {
				op, match = "RUnlock", "RLock"
			}
			lc.pass.Reportf(d.pos, "deferred %s.%s without a matching %s in this function",
				d.ref.display(), op, match)
		}
	}

	// Literals captured along the way (goroutine bodies, stored
	// closures) are their own locking scopes.
	for _, lit := range fc.pendingLits {
		lc.checkFunc(lit.Body)
	}
}

// walkStmt interprets one statement against st and reports whether the
// path terminates (return/branch).
func (fc *funcCtx) walkStmt(s ast.Stmt, st *lockState) bool {
	if s == nil {
		return false
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if fc.walkStmt(sub, st) {
				return true
			}
		}
	case *ast.ExprStmt:
		fc.walkExpr(s.X, st)
	case *ast.SendStmt:
		fc.walkExpr(s.Chan, st)
		fc.walkExpr(s.Value, st)
	case *ast.IncDecStmt:
		fc.walkExpr(s.X, st)
	case *ast.AssignStmt:
		fc.noteMethodValue(s)
		for _, rhs := range s.Rhs {
			fc.walkExpr(rhs, st)
		}
	case *ast.DeclStmt:
		if gd, isGen := s.Decl.(*ast.GenDecl); isGen {
			for _, spec := range gd.Specs {
				if vs, isVal := spec.(*ast.ValueSpec); isVal {
					for _, v := range vs.Values {
						fc.walkExpr(v, st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		fc.noteDefer(s, st)
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			fc.walkExpr(arg, st)
		}
		if lit, isLit := s.Call.Fun.(*ast.FuncLit); isLit {
			fc.pendingLits = append(fc.pendingLits, lit)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fc.walkExpr(r, st)
		}
		return true
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.LabeledStmt:
		return fc.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		fc.walkStmt(s.Init, st)
		fc.walkExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := fc.walkStmt(s.Body, thenSt)
		if s.Else == nil {
			if !thenTerm {
				st.mergeFrom(thenSt)
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := fc.walkStmt(s.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.mergeFrom(elseSt)
		}
	case *ast.ForStmt:
		fc.walkStmt(s.Init, st)
		fc.walkExpr(s.Cond, st)
		bodySt := st.clone()
		if !fc.walkStmt(s.Body, bodySt) {
			fc.walkStmt(s.Post, bodySt)
			st.mergeFrom(bodySt)
		}
	case *ast.RangeStmt:
		fc.walkExpr(s.X, st)
		bodySt := st.clone()
		if !fc.walkStmt(s.Body, bodySt) {
			st.mergeFrom(bodySt)
		}
	case *ast.SwitchStmt:
		fc.walkStmt(s.Init, st)
		fc.walkExpr(s.Tag, st)
		fc.walkCases(caseBodies(s.Body), st, hasDefaultClause(s.Body))
	case *ast.TypeSwitchStmt:
		fc.walkStmt(s.Init, st)
		fc.walkCases(caseBodies(s.Body), st, hasDefaultClause(s.Body))
	case *ast.SelectStmt:
		var branches [][]ast.Stmt
		for _, c := range s.Body.List {
			if cc, isComm := c.(*ast.CommClause); isComm {
				stmts := append([]ast.Stmt(nil), cc.Body...)
				if cc.Comm != nil {
					stmts = append([]ast.Stmt{cc.Comm}, stmts...)
				}
				branches = append(branches, stmts)
			}
		}
		fc.walkCases(branches, st, true)
	}
	return false
}

// caseBodies flattens a switch body into per-clause statement lists.
func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		if cc, isCase := c.(*ast.CaseClause); isCase {
			out = append(out, cc.Body)
		}
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, isCase := c.(*ast.CaseClause); isCase && cc.List == nil {
			return true
		}
	}
	return false
}

// walkCases interprets branch alternatives from a shared entry state
// and merges the surviving exits. When the construct may execute no
// branch (a switch without default), the entry state survives too.
func (fc *funcCtx) walkCases(branches [][]ast.Stmt, st *lockState, exhaustive bool) {
	entry := st.clone()
	var exits []*lockState
	for _, stmts := range branches {
		bst := entry.clone()
		terminated := false
		for _, s := range stmts {
			if fc.walkStmt(s, bst) {
				terminated = true
				break
			}
		}
		if !terminated {
			exits = append(exits, bst)
		}
	}
	if !exhaustive || len(branches) == 0 {
		exits = append(exits, entry)
	}
	if len(exits) == 0 {
		return // every branch terminated; caller continues with entry state
	}
	*st = *exits[0]
	for _, e := range exits[1:] {
		st.mergeFrom(e)
	}
}

// noteMethodValue records `u := mu.Unlock` bindings so `defer u()`
// resolves to the mutex.
func (fc *funcCtx) noteMethodValue(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	info := fc.lc.pass.TypesInfo
	for i, rhs := range s.Rhs {
		sel, isSel := ast.Unparen(rhs).(*ast.SelectorExpr)
		if !isSel {
			continue
		}
		fn, isFn := info.Uses[sel.Sel].(*types.Func)
		if !isFn || (fn.Name() != "Unlock" && fn.Name() != "RUnlock") {
			continue
		}
		sig, isSig := fn.Type().(*types.Signature)
		if !isSig || sig.Recv() == nil || !namedFrom(sig.Recv().Type(), "sync", "Mutex", "RWMutex") {
			continue
		}
		id, isIdent := s.Lhs[i].(*ast.Ident)
		if !isIdent {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			continue
		}
		ref := resolveLockExpr(info, sel.X)
		if ref.valid() {
			fc.methodVals[obj] = deferredOp{ref: ref, read: fn.Name() == "RUnlock"}
		}
	}
}

// noteDefer records one defer statement's exit-time effect.
func (fc *funcCtx) noteDefer(s *ast.DeferStmt, st *lockState) {
	for _, arg := range s.Call.Args {
		fc.walkExpr(arg, st)
	}
	info := fc.lc.pass.TypesInfo
	if lit, isLit := s.Call.Fun.(*ast.FuncLit); isLit {
		fc.deferred = append(fc.deferred, deferredOp{pos: s.Pos(), lit: lit})
		return
	}
	if ref, op, isLock := lockOp(info, s.Call); isLock {
		if (op == "Unlock" || op == "RUnlock") && ref.valid() {
			fc.deferred = append(fc.deferred, deferredOp{pos: s.Pos(), ref: ref, read: op == "RUnlock"})
		}
		return
	}
	if id, isIdent := ast.Unparen(s.Call.Fun).(*ast.Ident); isIdent {
		if obj := info.Uses[id]; obj != nil {
			if d, bound := fc.methodVals[obj]; bound {
				d.pos = s.Pos()
				fc.deferred = append(fc.deferred, d)
			}
		}
	}
}

// walkExpr interprets the lock effects of one expression in evaluation
// order: direct Lock/Unlock calls mutate st, calls to summarized
// functions are checked against the held set, and function literals are
// queued as independent scopes.
func (fc *funcCtx) walkExpr(e ast.Expr, st *lockState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, isLit := n.(*ast.FuncLit); isLit {
			fc.pendingLits = append(fc.pendingLits, lit)
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if ref, op, isLock := lockOp(fc.lc.pass.TypesInfo, call); isLock {
			if ref.valid() {
				fc.applyLockOp(call.Pos(), ref, op, st)
			}
			return true
		}
		if callee := calleeFunc(fc.lc.pass.TypesInfo, call); callee != nil {
			fc.checkCallee(call.Pos(), callee, st)
		}
		return true
	})
}

// applyLockOp mutates the held set for one direct mutex operation,
// reporting order inversions and unmatched unlocks.
func (fc *funcCtx) applyLockOp(pos token.Pos, ref lockRef, op string, st *lockState) {
	lc := fc.lc
	_, read := lockMode(op)
	key := ref.key(read)
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock":
		if rank, tok, ranked := lc.ranks.rankOf(ref.class); ranked {
			for _, h := range st.sortedHeld() {
				if h.ranked && h.count > 0 && rank < h.rank {
					lc.pass.Reportf(pos,
						"%s acquires %q (rank %d) while holding %q (rank %d); declared order: %s",
						ref.display()+"."+op, tok, rank, h.tok, h.rank, lc.ranks.chain)
					break
				}
			}
			ent := st.held[key]
			ent.count++
			ent.display, ent.tok, ent.rank, ent.ranked = ref.display(), tok, rank, true
			st.held[key] = ent
			return
		}
		ent := st.held[key]
		ent.count++
		ent.display = ref.display()
		st.held[key] = ent
	case "Unlock", "RUnlock":
		ent, have := st.held[key]
		if !have || ent.count == 0 {
			match := "Lock"
			if read {
				match = "RLock"
			}
			lc.pass.Reportf(pos, "%s.%s without a matching %s on this path",
				ref.display(), op, match)
			return
		}
		ent.count--
		st.held[key] = ent
	}
}

// checkCallee compares a callee's acquisition summary against the held
// set: calling into something that takes an earlier-ranked lock is the
// same inversion as taking it directly, one frame removed.
func (fc *funcCtx) checkCallee(pos token.Pos, callee *types.Func, st *lockState) {
	lc := fc.lc
	acquires := lc.acquiresOf(callee)
	if len(acquires) == 0 {
		return
	}
	for _, class := range acquires {
		rank, tok, ranked := lc.ranks.rankOf(class)
		if !ranked {
			continue
		}
		for _, h := range st.sortedHeld() {
			if h.ranked && h.count > 0 && rank < h.rank {
				lc.pass.Reportf(pos,
					"call to %s acquires %q (rank %d) while holding %q (rank %d); declared order: %s",
					callee.Name(), tok, rank, h.tok, h.rank, lc.ranks.chain)
				return // one report per call site is enough
			}
		}
	}
}

// sortedHeld returns the held entries in a deterministic order so
// reports do not depend on map iteration.
func (st *lockState) sortedHeld() []heldEntry {
	keys := make([]string, 0, len(st.held))
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]heldEntry, 0, len(keys))
	for _, k := range keys {
		out = append(out, st.held[k])
	}
	return out
}

// --- Copy checking ------------------------------------------------------

// containsLockType reports whether a value of type t embeds mutex
// state, so copying it forks the lock. Pointers, slices, maps and
// channels stop the walk: sharing is the point.
func containsLockType(t types.Type) bool {
	return containsLock(t, make(map[types.Type]bool))
}

func containsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if namedFrom(t, "sync", "Mutex", "RWMutex", "WaitGroup") {
		// namedFrom dereferences pointers; a *Mutex copy is fine.
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			return false
		}
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem(), seen)
	}
	return false
}

// copySource reports whether e reads an existing addressable value (the
// shapes whose copy duplicates a live mutex). Composite literals,
// calls and conversions construct fresh values and are fine.
func copySource(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name != "_"
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// checkCopies is the flat mutex-copy pass over one file: by-value
// parameters and receivers, plain assignments, range values, and call
// arguments.
func (lc *lockChecker) checkCopies(f *ast.File) {
	info := lc.pass.TypesInfo
	checkFieldList := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := typeOf(info, field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if containsLockType(t) {
				lc.pass.Reportf(field.Pos(), "%s passes lock by value: %s contains a sync mutex; use a pointer",
					what, types.TypeString(t, types.RelativeTo(lc.pass.Pkg)))
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(n.Recv, "receiver")
			checkFieldList(n.Type.Params, "parameter")
		case *ast.FuncLit:
			checkFieldList(n.Type.Params, "parameter")
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				if !copySource(rhs) {
					continue
				}
				if t := typeOf(info, rhs); t != nil && containsLockType(t) {
					lc.pass.Reportf(rhs.Pos(), "assignment copies lock value: %s contains a sync mutex",
						types.TypeString(t, types.RelativeTo(lc.pass.Pkg)))
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			t := typeOf(info, n.Value)
			if t == nil {
				// A := range variable is a definition, not an expression
				// with a recorded type.
				if id, isIdent := n.Value.(*ast.Ident); isIdent {
					if obj := info.Defs[id]; obj != nil {
						t = obj.Type()
					}
				}
			}
			if t != nil && containsLockType(t) {
				lc.pass.Reportf(n.Value.Pos(), "range copies lock value per iteration: %s contains a sync mutex",
					types.TypeString(t, types.RelativeTo(lc.pass.Pkg)))
			}
		case *ast.CallExpr:
			if _, _, isLock := lockOp(info, n); isLock {
				return true
			}
			for _, arg := range n.Args {
				if !copySource(arg) {
					continue
				}
				if t := typeOf(info, arg); t != nil && containsLockType(t) {
					lc.pass.Reportf(arg.Pos(), "call passes lock by value: %s contains a sync mutex",
						types.TypeString(t, types.RelativeTo(lc.pass.Pkg)))
				}
			}
		}
		return true
	})
}

// --- Entry point --------------------------------------------------------

func runLockLint(pass *Pass) {
	own, ownPos := parseLockChains(pass)
	if len(own) > 0 {
		pass.ExportPackageFact(&LockOrder{Chains: own})
	}
	lc := &lockChecker{pass: pass}
	lc.ranks = buildRanks(pass, own, ownPos)
	lc.sums = buildSummaries(pass)

	// Export the acquisition summaries so importing packages see
	// through this package's calls.
	for fn, s := range lc.sums {
		if len(s.all) == 0 {
			continue
		}
		acq := make([]string, 0, len(s.all))
		for c := range s.all {
			acq = append(acq, c)
		}
		sort.Strings(acq)
		pass.ExportObjectFact(fn, &LockSet{Acquires: acq})
	}

	for _, f := range pass.Files {
		lc.checkCopies(f)
		for _, decl := range f.Decls {
			if fd, isFunc := decl.(*ast.FuncDecl); isFunc && fd.Body != nil {
				lc.checkFunc(fd.Body)
			}
		}
	}
}
