package ddgms_test

import (
	"go/ast"
	"go/token"
	"strings"
)

// A type string names a type the way the guard follows it: "path.Name"
// for a named type (pointers dropped), "[]" + element for a slice or
// array, "map[]" + value for a map, "" when unknown.
const (
	sliceOf = "[]"
	mapOf   = "map[]"
)

// typeDecl is one declared type of the tree.
type typeDecl struct {
	fields     map[string]string // struct field -> type string
	embeds     []string          // embedded types' strings
	iface      []string          // interface: its method names
	results    map[string]string // interface method -> first result's type
	underlying string            // neither struct nor interface: its type string
}

// typeIndex is what the guard knows of the tree's declarations, keyed by
// import path + name, enough to follow a selector's receiver to its
// declared type with go/parser alone: function and method results,
// struct fields, package variables, parameters and local definitions.
type typeIndex struct {
	types   map[string]*typeDecl
	methods map[string]map[string]string // receiver type -> method -> first result's type
	funcs   map[string]string            // "path.F" -> first result's type
	vars    map[string]string            // "path.V" -> declared type

	used   map[string]bool // "path.Type.Method"
	byName map[string]bool // methods whose receiver could not be followed
}

func newTypeIndex(files []goFile) *typeIndex {
	ix := &typeIndex{
		types: map[string]*typeDecl{}, methods: map[string]map[string]string{},
		funcs: map[string]string{}, vars: map[string]string{},
		used: map[string]bool{}, byName: map[string]bool{},
	}
	for _, gf := range files {
		for _, d := range gf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				res := ""
				if d.Type.Results != nil {
					res = typeString(gf, d.Type.Results.List[0].Type)
				}
				if d.Recv == nil {
					ix.funcs[gf.pkg+"."+d.Name.Name] = res
					continue
				}
				if recv := receiverType(d.Recv.List[0].Type); recv != nil {
					key := gf.pkg + "." + recv.Name
					if ix.methods[key] == nil {
						ix.methods[key] = map[string]string{}
					}
					ix.methods[key][d.Name.Name] = res
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if s, ok := s.(*ast.TypeSpec); ok {
						ix.types[gf.pkg+"."+s.Name.Name] = newTypeDecl(gf, s.Type)
					}
				}
			}
		}
	}
	for _, gf := range files {
		for _, d := range gf.file.Decls {
			if d, ok := d.(*ast.GenDecl); ok && d.Tok == token.VAR {
				env := map[string]string{}
				for _, s := range d.Specs {
					s := s.(*ast.ValueSpec)
					for i, id := range s.Names {
						ix.vars[gf.pkg+"."+id.Name] = ix.specType(gf, env, s, i)
					}
				}
			}
		}
	}
	return ix
}

func newTypeDecl(gf goFile, e ast.Expr) *typeDecl {
	td := &typeDecl{}
	switch e := e.(type) {
	case *ast.StructType:
		td.fields = map[string]string{}
		for _, f := range e.Fields.List {
			ts := typeString(gf, f.Type)
			if len(f.Names) == 0 {
				td.embeds = append(td.embeds, ts)
			}
			for _, id := range f.Names {
				td.fields[id.Name] = ts
			}
		}
	case *ast.InterfaceType:
		td.iface, td.results = []string{}, map[string]string{}
		for _, f := range e.Methods.List {
			for _, id := range f.Names {
				td.iface = append(td.iface, id.Name)
				if ft, ok := f.Type.(*ast.FuncType); ok && ft.Results != nil {
					td.results[id.Name] = typeString(gf, ft.Results.List[0].Type)
				}
			}
			if len(f.Names) == 0 {
				td.embeds = append(td.embeds, typeString(gf, f.Type))
			}
		}
	default:
		td.underlying = typeString(gf, e)
	}
	return td
}

// typeString renders a type expression of gf as a type string.
func typeString(gf goFile, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return gf.pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if p, ok := gf.imports[x.Name]; ok {
				return p + "." + e.Sel.Name
			}
		}
	case *ast.StarExpr:
		return typeString(gf, e.X)
	case *ast.ParenExpr:
		return typeString(gf, e.X)
	case *ast.IndexExpr:
		return typeString(gf, e.X)
	case *ast.IndexListExpr:
		return typeString(gf, e.X)
	case *ast.ArrayType:
		if elt := typeString(gf, e.Elt); elt != "" {
			return sliceOf + elt
		}
	case *ast.MapType:
		if v := typeString(gf, e.Value); v != "" {
			return mapOf + v
		}
	}
	return ""
}

// elem returns the element type string of a slice, array or map type
// string, looking through named types declared over one.
func (ix *typeIndex) elem(ts string) string {
	for range 4 {
		switch {
		case strings.HasPrefix(ts, sliceOf):
			return ts[len(sliceOf):]
		case strings.HasPrefix(ts, mapOf):
			return ts[len(mapOf):]
		}
		td := ix.types[ts]
		if td == nil || td.underlying == "" {
			return ""
		}
		ts = td.underlying
	}
	return ""
}

// specType returns the type of the i-th name of a var spec.
func (ix *typeIndex) specType(gf goFile, env map[string]string, s *ast.ValueSpec, i int) string {
	switch {
	case s.Type != nil:
		return typeString(gf, s.Type)
	case len(s.Values) == len(s.Names):
		return ix.typeOf(gf, env, s.Values[i])
	case i == 0 && len(s.Values) == 1:
		return ix.typeOf(gf, env, s.Values[0])
	}
	return ""
}

// typeOf follows an expression of gf to its type string, "" when the
// parser alone cannot tell.
func (ix *typeIndex) typeOf(gf goFile, env map[string]string, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if ts, ok := env[e.Name]; ok {
			return ts
		}
		return ix.vars[gf.pkg+"."+e.Name]
	case *ast.ParenExpr:
		return ix.typeOf(gf, env, e.X)
	case *ast.StarExpr:
		return ix.typeOf(gf, env, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return ix.typeOf(gf, env, e.X)
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return typeString(gf, e.Type)
		}
	case *ast.TypeAssertExpr:
		if e.Type != nil {
			return typeString(gf, e.Type)
		}
	case *ast.IndexExpr:
		return ix.elem(ix.typeOf(gf, env, e.X))
	case *ast.SliceExpr:
		return ix.typeOf(gf, env, e.X)
	case *ast.SelectorExpr:
		if p := ix.pkgOf(gf, env, e.X); p != "" {
			return ix.vars[p+"."+e.Sel.Name]
		}
		if td := ix.types[ix.typeOf(gf, env, e.X)]; td != nil {
			return td.fields[e.Sel.Name]
		}
	case *ast.CallExpr:
		return ix.callType(gf, env, e)
	}
	return ""
}

// callType returns the type of a call's first result, or of a
// conversion.
func (ix *typeIndex) callType(gf goFile, env map[string]string, c *ast.CallExpr) string {
	fun := c.Fun
	if x, ok := fun.(*ast.IndexExpr); ok { // explicitly instantiated generic
		fun = x.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch f.Name {
		case "new", "make":
			if len(c.Args) > 0 {
				return typeString(gf, c.Args[0])
			}
		case "append":
			if len(c.Args) > 0 {
				return ix.typeOf(gf, env, c.Args[0])
			}
		}
		key := gf.pkg + "." + f.Name
		if _, ok := ix.types[key]; ok {
			return key
		}
		return ix.funcs[key]
	case *ast.SelectorExpr:
		if p := ix.pkgOf(gf, env, f.X); p != "" {
			if _, ok := ix.types[p+"."+f.Sel.Name]; ok {
				return p + "." + f.Sel.Name
			}
			return ix.funcs[p+"."+f.Sel.Name]
		}
		recv := ix.typeOf(gf, env, f.X)
		if res, ok := ix.methods[recv][f.Sel.Name]; ok {
			return res
		}
		if td := ix.types[recv]; td != nil && td.results != nil {
			return td.results[f.Sel.Name]
		}
	case *ast.ArrayType, *ast.MapType:
		return typeString(gf, fun)
	}
	return ""
}

// pkgOf returns the import path an identifier names, if it names an
// import not shadowed by a local.
func (ix *typeIndex) pkgOf(gf goFile, env map[string]string, e ast.Expr) string {
	if x, ok := e.(*ast.Ident); ok {
		if _, local := env[x.Name]; !local {
			return gf.imports[x.Name]
		}
	}
	return ""
}

// ambiguous marks a local defined twice with different types: it is not
// followed.
const ambiguous = "?"

// define records a local's type; a second, different one makes it
// ambiguous.
func define(env map[string]string, name, ts string) {
	if name == "_" {
		return
	}
	if old, ok := env[name]; ok && old != ts {
		ts = ambiguous
	}
	env[name] = ts
}

// funcEnv types a function's receiver, parameters, results and every
// local its body defines, walking in source order.
func (ix *typeIndex) funcEnv(gf goFile, fn *ast.FuncDecl) map[string]string {
	env := map[string]string{}
	fields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				define(env, id.Name, typeString(gf, f.Type))
			}
		}
	}
	fields(fn.Recv)
	fields(fn.Type.Params)
	fields(fn.Type.Results)
	if fn.Body == nil {
		return env
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			fields(n.Type.Params)
			fields(n.Type.Results)
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				ts := ""
				switch {
				case len(n.Rhs) == len(n.Lhs):
					ts = ix.typeOf(gf, env, n.Rhs[i])
				case i == 0:
					ts = ix.typeOf(gf, env, n.Rhs[0])
				}
				define(env, id.Name, ts)
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				define(env, id.Name, ix.specType(gf, env, n, i))
			}
		case *ast.RangeStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			over := ix.typeOf(gf, env, n.X)
			if id, ok := n.Key.(*ast.Ident); ok {
				ts := ""
				if strings.HasPrefix(over, mapOf) {
					ts = ambiguous // the key type is not kept
				}
				define(env, id.Name, ts)
			}
			if id, ok := n.Value.(*ast.Ident); ok {
				define(env, id.Name, ix.elem(over))
			}
		case *ast.TypeSwitchStmt:
			if a, ok := n.Assign.(*ast.AssignStmt); ok {
				for _, lhs := range a.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						define(env, id.Name, ambiguous)
					}
				}
			}
		}
		return true
	})
	return env
}

// markMethodUses records the method each selector of gf names.
func (ix *typeIndex) markMethodUses(gf goFile) {
	mark := func(root ast.Node, env map[string]string) {
		ast.Inspect(root, func(n ast.Node) bool {
			s, ok := n.(*ast.SelectorExpr)
			if !ok || ix.pkgOf(gf, env, s.X) != "" {
				return true
			}
			recv := ix.typeOf(gf, env, s.X)
			if x, ok := s.X.(*ast.Ident); ok && recv == "" {
				if key := gf.pkg + "." + x.Name; ix.types[key] != nil {
					recv = key // a method expression T.M
				}
			}
			ix.markMethod(recv, s.Sel.Name)
			return true
		})
	}
	for _, d := range gf.file.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			mark(fn, ix.funcEnv(gf, fn))
		} else {
			mark(d, map[string]string{})
		}
	}
}

// markMethod records a use of method name on a receiver of type recv.
func (ix *typeIndex) markMethod(recv, name string) {
	td := ix.types[recv]
	switch {
	case td == nil:
		// Unknown, or a type declared outside the tree: the call may
		// reach any method of that name through an interface.
		ix.byName[name] = true
	case td.iface != nil:
		want := ix.ifaceMethods(recv, 0)
		for typ, ms := range ix.methods {
			if covers(ms, want) {
				ix.used[typ+"."+name] = true
			}
		}
	case ix.markDeclared(recv, name, 0):
	case td.fields != nil && td.fields[name] != "":
		// a field, not a method
	default:
		ix.byName[name] = true
	}
}

// markDeclared marks recv's method name, or the one it promotes from an
// embedded type, and reports whether there was one.
func (ix *typeIndex) markDeclared(recv, name string, depth int) bool {
	if _, ok := ix.methods[recv][name]; ok {
		ix.used[recv+"."+name] = true
		return true
	}
	td := ix.types[recv]
	if td == nil || depth > 4 {
		return false
	}
	for _, e := range td.embeds {
		if ix.markDeclared(e, name, depth+1) {
			return true
		}
	}
	return false
}

// ifaceMethods returns an interface's method names, embedded
// interfaces' included.
func (ix *typeIndex) ifaceMethods(iface string, depth int) []string {
	td := ix.types[iface]
	if td == nil || depth > 4 {
		return nil
	}
	out := append([]string(nil), td.iface...)
	for _, e := range td.embeds {
		out = append(out, ix.ifaceMethods(e, depth+1)...)
	}
	return out
}

func covers(ms map[string]string, names []string) bool {
	for _, n := range names {
		if _, ok := ms[n]; !ok {
			return false
		}
	}
	return true
}

// methodUsed reports whether a non-test file reaches recv's method name.
func (ix *typeIndex) methodUsed(recv, name string) bool {
	return ix.used[recv+"."+name] || ix.byName[name] || stdlibCalled[name]
}
