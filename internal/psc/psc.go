// Package psc implements the publish/subscribe precompiler of the
// paper's §4 — "the publish/subscribe counterpart to the rmic compiler"
// — for Go sources. The cmd/psc binary wraps it.
//
// Given a package directory, psc:
//
//  1. Discovers obvent classes: exported struct types that (possibly
//     transitively) embed obvent.Base.
//
//  2. Generates one typed adapter per class (the paper's Figure 6
//     TAdapter): a thin, statically typed facade over the engine with
//     Publish and Subscribe entry points for exactly that class.
//
//  3. Lifts filter functions into first-class expression trees (the
//     paper's §4.4.3 invocation + evaluation trees): a function
//     annotated with a "//psc:filter" comment and shaped
//     func(t T) bool is checked against the mobility restrictions of
//     §3.3.4 — only (nested) accessor invocations on the filtered
//     obvent, primitive constants, comparisons and boolean
//     connectives — and, when conforming, compiled into a generated
//     FooExpr() *filter.Expr constructor. Non-conforming filters are
//     reported with the offending position; like the paper, the
//     application can still use them as opaque local filters, losing
//     migrateability.
//
// The paper achieves this with Java source preprocessing because Java
// offers no metaprogramming; Go's go/ast + go/format (stdlib) provide
// the same capability without leaving the toolchain.
package psc

import (
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"sort"
	"strings"
)

// Class is a discovered obvent class.
type Class struct {
	// Name is the exported type name.
	Name string
	// QoS lists the embedded QoS bases (documentation of the
	// composed semantics).
	QoS []string
}

// FilterFunc is a discovered //psc:filter function.
type FilterFunc struct {
	// Name is the function name; the generated constructor is
	// Name + "Expr".
	Name string
	// Param and ParamType describe the filtered obvent parameter.
	Param     string
	ParamType string
	// ExprSrc is the generated filter.Expr construction expression.
	ExprSrc string
}

// Violation reports a filter that breaks the mobility restrictions.
type Violation struct {
	Func   string
	Pos    token.Position
	Reason string
}

// Error renders the violation like a compiler diagnostic.
func (v Violation) Error() string {
	return fmt.Sprintf("%s: filter %s: %s", v.Pos, v.Func, v.Reason)
}

// Result is the outcome of scanning one package directory.
type Result struct {
	Package    string
	Classes    []Class
	Filters    []FilterFunc
	Violations []Violation
}

// structInfo is one struct declaration's scan record.
type structInfo struct {
	embedsObventBase bool // directly embeds obvent.Base
	embeds           []string
	qos              []string
}

// qosBases are the embeddable markers from package obvent.
var qosBases = map[string]bool{
	"Base":            true,
	"ReliableBase":    true,
	"CertifiedBase":   true,
	"TotalOrderBase":  true,
	"FIFOOrderBase":   true,
	"CausalOrderBase": true,
	"TimelyBase":      true,
	"PriorityBase":    true,
}

// Scan parses the package in dir and discovers obvent classes and
// filter functions.
func Scan(dir string) (*Result, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("psc: parse %s: %w", dir, err)
	}
	var pkg *ast.Package
	for name, p := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		pkg = p
	}
	if pkg == nil {
		return nil, fmt.Errorf("psc: no package in %s", dir)
	}

	res := &Result{Package: pkg.Name}

	// Pass 1: struct declarations with their embedded type names.
	structs := make(map[string]*structInfo)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				info := &structInfo{}
				for _, field := range st.Fields.List {
					if len(field.Names) > 0 {
						continue
					}
					switch t := field.Type.(type) {
					case *ast.SelectorExpr:
						if id, ok := t.X.(*ast.Ident); ok && id.Name == "obvent" && qosBases[t.Sel.Name] {
							if t.Sel.Name == "Base" {
								info.embedsObventBase = true
							} else {
								info.qos = append(info.qos, t.Sel.Name)
							}
						}
					case *ast.Ident:
						info.embeds = append(info.embeds, t.Name)
					}
				}
				structs[ts.Name.Name] = info
			}
		}
	}

	// Pass 2: fixpoint obvent-ness through same-package embedding.
	isObvent := func(name string) bool {
		seen := make(map[string]bool)
		var walk func(n string) bool
		walk = func(n string) bool {
			if seen[n] {
				return false
			}
			seen[n] = true
			info, ok := structs[n]
			if !ok {
				return false
			}
			if info.embedsObventBase {
				return true
			}
			for _, e := range info.embeds {
				if walk(e) {
					return true
				}
			}
			return false
		}
		return walk(name)
	}
	for name, info := range structs {
		if !ast.IsExported(name) || !isObvent(name) {
			continue
		}
		qos := append([]string(nil), info.qos...)
		sort.Strings(qos)
		res.Classes = append(res.Classes, Class{Name: name, QoS: qos})
	}
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i].Name < res.Classes[j].Name })

	// Pass 3: filter functions.
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Doc == nil {
				continue
			}
			annotated := false
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), "//psc:filter") {
					annotated = true
				}
			}
			if !annotated {
				continue
			}
			ff, violation := liftFilter(fset, fd)
			if violation != nil {
				res.Violations = append(res.Violations, *violation)
				continue
			}
			res.Filters = append(res.Filters, *ff)
		}
	}
	sort.Slice(res.Filters, func(i, j int) bool { return res.Filters[i].Name < res.Filters[j].Name })
	sort.Slice(res.Violations, func(i, j int) bool { return res.Violations[i].Func < res.Violations[j].Func })
	return res, nil
}

// liftFilter checks a filter function against the §3.3.4 mobility
// restrictions and compiles its body into a filter.Expr construction
// expression.
func liftFilter(fset *token.FileSet, fd *ast.FuncDecl) (*FilterFunc, *Violation) {
	bad := func(pos token.Pos, reason string) *Violation {
		return &Violation{Func: fd.Name.Name, Pos: fset.Position(pos), Reason: reason}
	}
	ft := fd.Type
	if ft.Params == nil || len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) != 1 {
		return nil, bad(fd.Pos(), "filter must take exactly one named obvent parameter")
	}
	if ft.Results == nil || len(ft.Results.List) != 1 {
		return nil, bad(fd.Pos(), "filter must return exactly bool")
	}
	if id, ok := ft.Results.List[0].Type.(*ast.Ident); !ok || id.Name != "bool" {
		return nil, bad(fd.Pos(), "filter must return bool")
	}
	param := ft.Params.List[0].Names[0].Name
	paramType := exprString(ft.Params.List[0].Type)

	if fd.Body == nil || len(fd.Body.List) != 1 {
		return nil, bad(fd.Pos(), "filter body must be a single return statement (no local variables or statements)")
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil, bad(fd.Body.Pos(), "filter body must be a single return statement")
	}

	lifter := &filterLifter{param: param, fset: fset, fn: fd.Name.Name}
	src, v := lifter.lift(ret.Results[0])
	if v != nil {
		return nil, v
	}
	return &FilterFunc{Name: fd.Name.Name, Param: param, ParamType: paramType, ExprSrc: src}, nil
}

// filterLifter translates an allowed boolean expression into filter
// builder source.
type filterLifter struct {
	param string
	fset  *token.FileSet
	fn    string
}

func (l *filterLifter) bad(pos token.Pos, reason string) *Violation {
	return &Violation{Func: l.fn, Pos: l.fset.Position(pos), Reason: reason}
}

// lift translates a boolean expression (evaluation tree).
func (l *filterLifter) lift(e ast.Expr) (string, *Violation) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return l.lift(x.X)
	case *ast.Ident:
		switch x.Name {
		case "true":
			return "filter.True()", nil
		case "false":
			return "filter.False()", nil
		}
		return "", l.bad(x.Pos(), fmt.Sprintf("free variable %q: only the obvent parameter and constants are allowed (§3.3.4)", x.Name))
	case *ast.UnaryExpr:
		if x.Op != token.NOT {
			return "", l.bad(x.Pos(), "only ! is allowed as a boolean unary operator")
		}
		inner, v := l.lift(x.X)
		if v != nil {
			return "", v
		}
		return "filter.Not(" + inner + ")", nil
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND, token.LOR:
			lhs, v := l.lift(x.X)
			if v != nil {
				return "", v
			}
			rhs, v := l.lift(x.Y)
			if v != nil {
				return "", v
			}
			fn := "filter.And"
			if x.Op == token.LOR {
				fn = "filter.Or"
			}
			return fn + "(" + lhs + ", " + rhs + ")", nil
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return l.liftComparison(x)
		default:
			return "", l.bad(x.Pos(), fmt.Sprintf("operator %s is not allowed in a migratable filter", x.Op))
		}
	case *ast.CallExpr:
		return l.liftStringsCall(x)
	default:
		return "", l.bad(e.Pos(), fmt.Sprintf("construct %T is not allowed in a migratable filter", e))
	}
}

var cmpMethods = map[token.Token]string{
	token.EQL: "Eq", token.NEQ: "Ne",
	token.LSS: "Lt", token.LEQ: "Le",
	token.GTR: "Gt", token.GEQ: "Ge",
}

// liftComparison translates `chain op operand`.
func (l *filterLifter) liftComparison(x *ast.BinaryExpr) (string, *Violation) {
	lpath, lok := l.paramChain(x.X)
	rpath, rok := l.paramChain(x.Y)
	method := cmpMethods[x.Op]
	switch {
	case lok && rok:
		return fmt.Sprintf("filter.Path(%q).%s(filter.Path(%q))", lpath, method, rpath), nil
	case lok:
		rhs, v := l.liftOperand(x.Y)
		if v != nil {
			return "", v
		}
		return fmt.Sprintf("filter.Path(%q).%s(%s)", lpath, method, rhs), nil
	case rok:
		// Mirror `const op chain` to `chain op' const`.
		mirror := map[token.Token]string{
			token.EQL: "Eq", token.NEQ: "Ne",
			token.LSS: "Gt", token.LEQ: "Ge",
			token.GTR: "Lt", token.GEQ: "Le",
		}
		lhs, v := l.liftOperand(x.X)
		if v != nil {
			return "", v
		}
		return fmt.Sprintf("filter.Path(%q).%s(%s)", rpath, mirror[x.Op], lhs), nil
	default:
		return "", l.bad(x.Pos(), "comparison must involve the obvent parameter")
	}
}

// liftStringsCall translates strings.Contains/HasPrefix/HasSuffix.
func (l *filterLifter) liftStringsCall(x *ast.CallExpr) (string, *Violation) {
	sel, ok := x.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", l.bad(x.Pos(), "only strings.Contains/HasPrefix/HasSuffix calls are allowed at boolean position")
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "strings" {
		return "", l.bad(x.Pos(), "only invocations on the obvent parameter or the strings package are allowed (§3.3.4)")
	}
	var method string
	switch sel.Sel.Name {
	case "Contains":
		method = "Contains"
	case "HasPrefix":
		method = "HasPrefix"
	case "HasSuffix":
		method = "HasSuffix"
	default:
		return "", l.bad(x.Pos(), fmt.Sprintf("strings.%s is not migratable", sel.Sel.Name))
	}
	if len(x.Args) != 2 {
		return "", l.bad(x.Pos(), "strings predicate must have two arguments")
	}
	path, ok := l.paramChain(x.Args[0])
	if !ok {
		return "", l.bad(x.Args[0].Pos(), "first argument must be an accessor chain on the obvent parameter")
	}
	arg, v := l.liftOperand(x.Args[1])
	if v != nil {
		return "", v
	}
	return fmt.Sprintf("filter.Path(%q).%s(%s)", path, method, arg), nil
}

// liftOperand translates a constant operand.
func (l *filterLifter) liftOperand(e ast.Expr) (string, *Violation) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return l.liftOperand(x.X)
	case *ast.BasicLit:
		switch x.Kind {
		case token.INT:
			return "filter.Int(" + x.Value + ")", nil
		case token.FLOAT:
			return "filter.Float(" + x.Value + ")", nil
		case token.STRING:
			return "filter.Str(" + x.Value + ")", nil
		}
		return "", l.bad(x.Pos(), "only integer, float and string constants are allowed")
	case *ast.UnaryExpr:
		if x.Op == token.SUB {
			if lit, ok := x.X.(*ast.BasicLit); ok {
				switch lit.Kind {
				case token.INT:
					return "filter.Int(-" + lit.Value + ")", nil
				case token.FLOAT:
					return "filter.Float(-" + lit.Value + ")", nil
				}
			}
		}
		return "", l.bad(x.Pos(), "operand must be a primitive constant")
	case *ast.Ident:
		switch x.Name {
		case "true", "false":
			return "filter.Bool(" + x.Name + ")", nil
		}
		return "", l.bad(x.Pos(), fmt.Sprintf("free variable %q: filters may only use the obvent parameter and primitive constants (§3.3.4)", x.Name))
	default:
		if path, ok := l.paramChain(e); ok {
			return fmt.Sprintf("filter.Path(%q)", path), nil
		}
		return "", l.bad(e.Pos(), fmt.Sprintf("operand %T is not allowed in a migratable filter", e))
	}
}

// paramChain recognizes accessor chains rooted at the parameter:
// q.GetPrice(), q.Market.Price, q.GetMarket().GetPrice(). It returns
// the dotted path.
func (l *filterLifter) paramChain(e ast.Expr) (string, bool) {
	var segs []string
	cur := e
	for {
		switch x := cur.(type) {
		case *ast.ParenExpr:
			cur = x.X
		case *ast.CallExpr:
			if len(x.Args) != 0 {
				return "", false // only niladic accessors migrate
			}
			cur = x.Fun
		case *ast.SelectorExpr:
			segs = append(segs, x.Sel.Name)
			cur = x.X
		case *ast.Ident:
			if x.Name != l.param {
				return "", false
			}
			if len(segs) == 0 {
				return "", false
			}
			// segs were collected innermost-last; reverse.
			for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
				segs[i], segs[j] = segs[j], segs[i]
			}
			return strings.Join(segs, "."), true
		default:
			return "", false
		}
	}
}

// exprString renders a type expression.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	default:
		return fmt.Sprintf("%T", e)
	}
}

// Generate renders the adapters-and-filters file for a scan result.
// The output is gofmt-formatted Go source in the scanned package.
func Generate(res *Result) ([]byte, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "// Code generated by psc; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// Typed adapters in the mold of the paper's Figure 6: one XxxAdapter\n")
	fmt.Fprintf(&b, "// per obvent class, plus lifted filter expressions (§4.4.3).\n\n")
	fmt.Fprintf(&b, "package %s\n\n", res.Package)
	fmt.Fprintf(&b, "import (\n")
	fmt.Fprintf(&b, "\t\"context\"\n\n")
	fmt.Fprintf(&b, "\t\"govents\"\n")
	fmt.Fprintf(&b, "\t\"govents/filter\"\n")
	fmt.Fprintf(&b, ")\n\n")

	for _, c := range res.Classes {
		qos := "default (unreliable, unordered)"
		if len(c.QoS) > 0 {
			qos = strings.Join(c.QoS, ", ")
		}
		fmt.Fprintf(&b, "// %sAdapter is the typed adapter for obvent class %s.\n", c.Name, c.Name)
		fmt.Fprintf(&b, "// Composed QoS semantics: %s.\n", qos)
		fmt.Fprintf(&b, "type %sAdapter struct {\n\tdomain *govents.Domain\n}\n\n", c.Name)
		fmt.Fprintf(&b, "// New%sAdapter binds the adapter to a domain.\n", c.Name)
		fmt.Fprintf(&b, "func New%sAdapter(d *govents.Domain) %sAdapter {\n", c.Name, c.Name)
		fmt.Fprintf(&b, "\td.Registry().MustRegister(%s{})\n", c.Name)
		fmt.Fprintf(&b, "\treturn %sAdapter{domain: d}\n}\n\n", c.Name)
		fmt.Fprintf(&b, "// Publish publishes an instance of %s.\n", c.Name)
		fmt.Fprintf(&b, "func (a %sAdapter) Publish(ctx context.Context, o %s) error {\n\treturn a.domain.Publish(ctx, o)\n}\n\n", c.Name, c.Name)
		fmt.Fprintf(&b, "// Subscribe subscribes to %s (and its subtypes) with a migratable\n// filter; the subscription is returned active.\n", c.Name)
		fmt.Fprintf(&b, "func (a %sAdapter) Subscribe(f *filter.Expr, handler func(%s)) (*govents.Subscription, error) {\n", c.Name, c.Name)
		fmt.Fprintf(&b, "\treturn govents.Subscribe(a.domain, f, handler)\n}\n\n")
		fmt.Fprintf(&b, "// SubscribeInactive is Subscribe in the paper's two-phase form: the\n// subscription receives nothing until Activate is called.\n")
		fmt.Fprintf(&b, "func (a %sAdapter) SubscribeInactive(f *filter.Expr, handler func(%s)) (*govents.Subscription, error) {\n", c.Name, c.Name)
		fmt.Fprintf(&b, "\treturn govents.SubscribeInactive(a.domain, f, handler)\n}\n\n")
		fmt.Fprintf(&b, "// SubscribeLocal subscribes with an opaque local predicate; the\n// subscription is returned active.\n")
		fmt.Fprintf(&b, "func (a %sAdapter) SubscribeLocal(pred func(%s) bool, handler func(%s)) (*govents.Subscription, error) {\n", c.Name, c.Name, c.Name)
		fmt.Fprintf(&b, "\treturn govents.SubscribeLocal(a.domain, pred, handler)\n}\n\n")
	}

	for _, f := range res.Filters {
		fmt.Fprintf(&b, "// %sExpr is the migratable form of filter %s (lifted by psc).\n", f.Name, f.Name)
		fmt.Fprintf(&b, "func %sExpr() *filter.Expr {\n\treturn %s\n}\n\n", f.Name, f.ExprSrc)
	}

	out, err := format.Source([]byte(b.String()))
	if err != nil {
		return nil, fmt.Errorf("psc: format generated code: %w (generator bug)", err)
	}
	return out, nil
}
