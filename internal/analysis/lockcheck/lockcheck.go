// Package lockcheck defines the dtmlint analyzer that statically
// enforces the repository's mutex-guarded shared-state invariants. The
// dynamic side of the contract is go test -race, which only sees a race
// when no lock orders the two accesses. That is why the serve handlers
// keep this analyzer: each takes Server.mu in lookup first, which orders
// every earlier write to the job before the handler runs, so a handler
// that then reads the job's fields without the lock (planted in
// handleStatus) races only with a write landing in that short gap. The
// serve battery and its soak pass under -race with that plant; only
// lockcheck reports it (TestDtmlintPlants/lockcheck-serve). The
// experiments pool's batch state carries no annotations: an unguarded
// update there fails TestRunProducesSlowdown under -race.
//
// A struct field opts in by naming its guard in a field comment:
//
//	mu   sync.Mutex
//	jobs map[string]*job // guarded-by: mu
//
// or, for state guarded by another struct's mutex (the serve job's
// fields are guarded by the owning Server's mu):
//
//	state string // guarded-by: Server.mu
//
// The guard must be a sync.Mutex: the tree uses no sync.RWMutex, and an
// annotation naming one is reported as malformed rather than checked
// with read/write holds nobody needs.
//
// Every read or write of a guarded field must then be dominated by a
// hold of that mutex. The analyzer tracks holds through each function
// body with a block-structured walk: mu.Lock() acquires, mu.Unlock()
// releases, `defer mu.Unlock()` holds to the end of the function,
// branches fork the held set and joins intersect it (branches that end
// in return/break/continue do not constrain the join).
//
// Interprocedural holds follow the repository's naming convention:
// a method whose name ends in "Locked" is assumed to run with its
// receiver's mutexes held (its own accesses are exempt), and every call
// to such a method is itself checked — calling x.fooLocked() without
// holding one of x's mutexes is a finding. Two structural exemptions
// keep construction idiomatic: accesses to values freshly created in
// the same function (`s := &Server{…}; s.jobs = …` before the value is
// shared) and function literals, which are analyzed separately with an
// empty held set (a closure may run on another goroutine, so it must
// acquire locks itself).
//
// The analysis is intra-procedural and flow-approximate, not a proof —
// the -race soaks remain the ground truth. Its job is to catch the easy
// majority (a new endpoint touching s.jobs without s.mu) at lint time,
// and to force a written justification (//dtmlint:allow lockcheck
// <reason>) for every deliberate unguarded access, e.g. reads ordered
// by a channel close.
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"hybriddtm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockcheck",
	Doc:  "require accesses to `// guarded-by:` annotated fields to hold the named mutex",
	Run:  run,
}

// guardedRE extracts the mutex name from a field comment.
var guardedRE = regexp.MustCompile(`guarded-by:[ \t]*([A-Za-z_][A-Za-z0-9_.]*)?`)

// spec is one guarded field.
type spec struct {
	field      *types.Var
	mutexField string       // name of the mutex field
	owner      *types.Named // type holding the mutex; nil only for anonymous structs
	sameStruct bool         // mutex lives in the same struct as the field
}

type checker struct {
	pass *analysis.Pass
	// specs maps each annotated field to its guard.
	specs map[*types.Var]*spec
	// mutexFields lists the sync.Mutex fields of each named struct, for
	// the *Locked-method entry assumption.
	mutexFields map[*types.Named][]string
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:        pass,
		specs:       make(map[*types.Var]*spec),
		mutexFields: make(map[*types.Named][]string),
	}
	c.collectSpecs()
	if len(c.specs) == 0 {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil, nil
}

// collectSpecs parses every `// guarded-by:` field annotation in the
// package, validating that the named mutex exists and is a mutex. It
// also records each named struct's mutex fields.
func (c *checker) collectSpecs() {
	for _, f := range c.pass.Files {
		if analysis.IsTestFile(c.pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			var owner *types.Named
			if tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
				owner, _ = tn.Type().(*types.Named)
			}
			c.recordStruct(owner, st)
			return true
		})
	}
}

func (c *checker) recordStruct(owner *types.Named, st *ast.StructType) {
	// First pass: the struct's own mutex fields.
	var mutexes []string
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok && isMutex(v.Type()) {
				mutexes = append(mutexes, name.Name)
			}
		}
	}
	if owner != nil && len(mutexes) > 0 {
		c.mutexFields[owner] = mutexes
	}

	// Second pass: annotations.
	for _, fld := range st.Fields.List {
		directive := guardDirective(fld)
		if directive == nil {
			continue
		}
		name := directive.name
		if name == "" {
			c.pass.Reportf(fld.Pos(), "malformed guarded-by annotation: want \"// guarded-by: <mutexfield>\" or \"// guarded-by: <Type>.<mutexfield>\"")
			continue
		}
		sp := &spec{owner: owner, sameStruct: true, mutexField: name}
		holder, _ := c.pass.TypesInfo.TypeOf(st).(*types.Struct)
		where := "the struct"
		if typeName, field, ok := strings.Cut(name, "."); ok {
			// Cross-struct form: Type.mutexfield.
			obj := c.pass.Pkg.Scope().Lookup(typeName)
			tn, isType := obj.(*types.TypeName)
			if !isType {
				c.pass.Reportf(fld.Pos(), "guarded-by %s: no type %s in this package", name, typeName)
				continue
			}
			sp.owner, _ = tn.Type().(*types.Named)
			sp.mutexField = field
			sp.sameStruct = false
			holder, _ = tn.Type().Underlying().(*types.Struct)
			where = typeName
		}
		switch guardKind(holder, sp.mutexField) {
		case "Mutex":
		case "RWMutex":
			c.pass.Reportf(fld.Pos(), "malformed guarded-by annotation: %s is a sync.RWMutex; guard with a sync.Mutex", name)
			continue
		default:
			c.pass.Reportf(fld.Pos(), "guarded-by %s: %s has no sync.Mutex field %s", name, where, sp.mutexField)
			continue
		}
		for _, fname := range fld.Names {
			if v, ok := c.pass.TypesInfo.Defs[fname].(*types.Var); ok {
				fs := *sp
				fs.field = v
				c.specs[v] = &fs
			}
		}
	}
}

type directive struct {
	name string
	pos  token.Pos
}

// guardDirective finds a guarded-by annotation in a field's doc or
// trailing comment.
func guardDirective(fld *ast.Field) *directive {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, cmt := range cg.List {
			if m := guardedRE.FindStringSubmatch(cmt.Text); m != nil {
				return &directive{name: m[1], pos: cmt.Pos()}
			}
		}
	}
	return nil
}

// guardKind returns the sync type name ("Mutex", "RWMutex", ...) of st's
// field name, or "" when there is no such field or it is not from sync.
func guardKind(st *types.Struct, name string) string {
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return syncType(f.Type())
		}
	}
	return ""
}

// syncType returns the name of t (or of what t points to) when it is
// declared in package sync, and "" otherwise.
func syncType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	return named.Obj().Name()
}

// isMutex matches sync.Mutex (possibly via pointer).
func isMutex(t types.Type) bool { return syncType(t) == "Mutex" }

// held is one acquired mutex.
type held struct {
	owner *types.Named // type whose field the mutex is; nil for loose mutex vars
	field string       // mutex field (or variable) name
}

// heldSet maps canonical lock-expression keys ("s.mu") to holds.
type heldSet map[string]held

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// intersect keeps only holds present in both.
func intersect(a, b heldSet) heldSet {
	out := make(heldSet)
	for k, va := range a {
		if _, ok := b[k]; ok {
			out[k] = va
		}
	}
	return out
}

// funcState carries per-function checking state.
type funcState struct {
	c *checker
	// fresh holds locals assigned from a fresh composite/new/make in this
	// function: unshared values whose fields need no lock yet.
	fresh map[types.Object]bool
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fs := &funcState{c: c, fresh: make(map[types.Object]bool)}
	h := make(heldSet)
	// A *Locked method runs with its receiver's mutexes held.
	if strings.HasSuffix(fd.Name.Name, "Locked") && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recvName := fd.Recv.List[0].Names[0].Name
		if recvObj, ok := c.pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
			if named := namedOf(recvObj.Type()); named != nil {
				for _, m := range c.mutexFields[named] {
					h[recvName+"."+m] = held{owner: named, field: m}
				}
			}
		}
	}
	fs.walkBody(fd.Body, h)
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// walkBody threads the held set through a statement list, returning the
// resulting set and whether the list always transfers control away
// (return/branch).
func (fs *funcState) walkBody(blk *ast.BlockStmt, h heldSet) (heldSet, bool) {
	for _, st := range blk.List {
		var term bool
		h, term = fs.walkStmt(st, h)
		if term {
			return h, true
		}
	}
	return h, false
}

func (fs *funcState) walkStmt(st ast.Stmt, h heldSet) (heldSet, bool) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return fs.walkBody(st, h)
	case *ast.LabeledStmt:
		return fs.walkStmt(st.Stmt, h)
	case *ast.ExprStmt:
		if key, hd, op, ok := fs.lockOp(st.X); ok {
			if op == "Lock" {
				h[key] = hd
			} else {
				delete(h, key)
			}
			return h, false
		}
		fs.scan(st.X, h, false)
		return h, false
	case *ast.DeferStmt:
		// A deferred Unlock holds the mutex to the end of the function:
		// skip the release. Everything else in the call (fn + args) is
		// evaluated now.
		if _, _, op, ok := fs.lockOp(st.Call); ok && op == "Unlock" {
			return h, false
		}
		fs.scan(st.Call, h, false)
		return h, false
	case *ast.GoStmt:
		fs.scan(st.Call, h, false)
		return h, false
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			fs.scan(rhs, h, false)
		}
		for _, lhs := range st.Lhs {
			fs.scan(lhs, h, true)
		}
		if st.Tok == token.DEFINE {
			fs.recordFresh(st)
		}
		return h, false
	case *ast.IncDecStmt:
		fs.scan(st.X, h, true)
		return h, false
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fs.scan(v, h, false)
					}
					fs.recordFreshSpec(vs)
				}
			}
		}
		return h, false
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			fs.scan(r, h, false)
		}
		return h, true
	case *ast.BranchStmt:
		return h, true
	case *ast.IfStmt:
		if st.Init != nil {
			h, _ = fs.walkStmt(st.Init, h)
		}
		fs.scan(st.Cond, h, false)
		hb, tb := fs.walkBody(st.Body, h.clone())
		he, te := h.clone(), false
		if st.Else != nil {
			he, te = fs.walkStmt(st.Else, he)
		}
		switch {
		case tb && te:
			return h, true
		case tb:
			return he, false
		case te:
			return hb, false
		default:
			return intersect(hb, he), false
		}
	case *ast.ForStmt:
		if st.Init != nil {
			h, _ = fs.walkStmt(st.Init, h)
		}
		if st.Cond != nil {
			fs.scan(st.Cond, h, false)
		}
		fs.walkBody(st.Body, h.clone())
		if st.Post != nil {
			fs.walkStmt(st.Post, h.clone())
		}
		return h, false
	case *ast.RangeStmt:
		fs.scan(st.X, h, false)
		if st.Key != nil {
			fs.scan(st.Key, h, true)
		}
		if st.Value != nil {
			fs.scan(st.Value, h, true)
		}
		fs.walkBody(st.Body, h.clone())
		return h, false
	case *ast.SwitchStmt:
		if st.Init != nil {
			h, _ = fs.walkStmt(st.Init, h)
		}
		if st.Tag != nil {
			fs.scan(st.Tag, h, false)
		}
		fs.walkCases(st.Body, h)
		return h, false
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			h, _ = fs.walkStmt(st.Init, h)
		}
		fs.walkStmt(st.Assign, h.clone())
		fs.walkCases(st.Body, h)
		return h, false
	case *ast.SelectStmt:
		fs.walkCases(st.Body, h)
		return h, false
	case *ast.SendStmt:
		fs.scan(st.Chan, h, false)
		fs.scan(st.Value, h, false)
		return h, false
	}
	return h, false
}

// walkCases walks each case clause with its own copy of the held set.
// Locks acquired inside a clause do not persist past the switch.
func (fs *funcState) walkCases(body *ast.BlockStmt, h heldSet) {
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				fs.scan(e, h, false)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm != nil {
				fs.walkStmt(cl.Comm, h.clone())
			}
			stmts = cl.Body
		}
		hc := h.clone()
		for _, st := range stmts {
			var term bool
			hc, term = fs.walkStmt(st, hc)
			if term {
				break
			}
		}
	}
}

// lockOp matches `<expr>.Lock()` / `Unlock` on a sync.Mutex, returning
// the canonical key and hold descriptor.
func (fs *funcState) lockOp(e ast.Expr) (key string, hd held, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", held{}, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", held{}, "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock":
	default:
		return "", held{}, "", false
	}
	recv := ast.Unparen(sel.X)
	if !isMutex(fs.c.pass.TypesInfo.TypeOf(recv)) {
		return "", held{}, "", false
	}
	key = exprKey(recv)
	if key == "" {
		return "", held{}, "", false
	}
	if rs, isSel := recv.(*ast.SelectorExpr); isSel {
		hd.owner = namedOf(fs.c.pass.TypesInfo.TypeOf(rs.X))
		hd.field = rs.Sel.Name
	} else {
		hd.field = key
	}
	return key, hd, op, true
}

// exprKey canonicalizes a selector chain of identifiers; "" if the
// expression is anything more complex.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	}
	return ""
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
}

// recordFresh marks locals defined from fresh allocations (&T{…}, T{…},
// new(T)): their fields are unshared until published.
func (fs *funcState) recordFresh(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, rhs := range st.Rhs {
		if !freshValue(rhs) {
			continue
		}
		if id, ok := st.Lhs[i].(*ast.Ident); ok {
			if obj := fs.c.pass.TypesInfo.Defs[id]; obj != nil {
				fs.fresh[obj] = true
			}
		}
	}
}

func (fs *funcState) recordFreshSpec(vs *ast.ValueSpec) {
	if len(vs.Names) != len(vs.Values) {
		return
	}
	for i, v := range vs.Values {
		if !freshValue(v) {
			continue
		}
		if obj := fs.c.pass.TypesInfo.Defs[vs.Names[i]]; obj != nil {
			fs.fresh[obj] = true
		}
	}
}

func freshValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

// scan inspects an expression for guarded-field accesses and calls to
// *Locked methods, checking each against the current held set. write
// marks the expression as an assignment target. Function literals are
// checked separately with an empty held set: a closure may run on
// another goroutine or after the lock is released.
func (fs *funcState) scan(e ast.Expr, h heldSet, write bool) {
	if e == nil {
		return
	}
	// Collect address-taken subexpressions: &x.f counts as a write.
	addrTaken := make(map[ast.Expr]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			addrTaken[ast.Unparen(u.X)] = true
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fs.checkFuncLit(n)
			return false
		case *ast.CallExpr:
			fs.checkLockedCall(n, h)
		case *ast.SelectorExpr:
			sel, ok := fs.c.pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			fv, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			sp, guarded := fs.c.specs[fv]
			if !guarded {
				return true
			}
			w := write || addrTaken[n]
			fs.checkAccess(n, sp, h, w)
		}
		return true
	})
}

func (fs *funcState) checkFuncLit(fl *ast.FuncLit) {
	inner := &funcState{c: fs.c, fresh: fs.fresh}
	inner.walkBody(fl.Body, make(heldSet))
}

// checkLockedCall flags calls to *Locked methods made without holding a
// mutex of the receiver.
func (fs *funcState) checkLockedCall(call *ast.CallExpr, h heldSet) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !strings.HasSuffix(sel.Sel.Name, "Locked") {
		return
	}
	s, ok := fs.c.pass.TypesInfo.Selections[sel]
	if !ok || (s.Kind() != types.MethodVal && s.Kind() != types.MethodExpr) {
		return
	}
	recv := ast.Unparen(sel.X)
	named := namedOf(fs.c.pass.TypesInfo.TypeOf(recv))
	if named == nil || len(fs.c.mutexFields[named]) == 0 {
		return
	}
	if root := rootIdent(recv); root != nil && fs.fresh[fs.c.pass.TypesInfo.ObjectOf(root)] {
		return
	}
	key := exprKey(recv)
	for k, hd := range h {
		if key != "" && strings.HasPrefix(k, key+".") {
			return
		}
		if hd.owner == named {
			return
		}
	}
	fs.c.pass.Reportf(call.Pos(),
		"call to %s.%s without holding %s's mutex (the Locked suffix promises the caller holds it)",
		named.Obj().Name(), sel.Sel.Name, named.Obj().Name())
}

// checkAccess flags a guarded-field access not covered by the held set.
func (fs *funcState) checkAccess(selExpr *ast.SelectorExpr, sp *spec, h heldSet, write bool) {
	base := ast.Unparen(selExpr.X)
	if root := rootIdent(base); root != nil && fs.fresh[fs.c.pass.TypesInfo.ObjectOf(root)] {
		return
	}
	if sp.sameStruct {
		key := exprKey(base)
		if key != "" {
			if _, ok := h[key+"."+sp.mutexField]; ok {
				return
			}
		} else {
			// Unresolvable base (s.jobs[id].x): accept any hold of the
			// right owner+field.
			for _, hd := range h {
				if hd.owner == ownerOf(sp, base, fs.c.pass) && hd.field == sp.mutexField {
					return
				}
			}
		}
	} else {
		for _, hd := range h {
			if hd.owner == sp.owner && hd.field == sp.mutexField {
				return
			}
		}
	}
	verb := "read of"
	if write {
		verb = "write to"
	}
	guard := sp.mutexField
	if !sp.sameStruct && sp.owner != nil {
		guard = sp.owner.Obj().Name() + "." + sp.mutexField
	}
	fs.c.pass.Reportf(selExpr.Sel.Pos(),
		"%s %s without holding %s (field is annotated guarded-by: %s)",
		verb, selExpr.Sel.Name, guard, guard)
}

// ownerOf resolves the named type of an access base for owner matching.
func ownerOf(sp *spec, base ast.Expr, pass *analysis.Pass) *types.Named {
	if sp.owner != nil {
		return sp.owner
	}
	return namedOf(pass.TypesInfo.TypeOf(base))
}
