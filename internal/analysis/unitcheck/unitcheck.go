// Package unitcheck defines the dtmlint analyzer that enforces
// temperature/power/energy unit discipline. The DTM feedback loop is a
// chain of physical quantities — °C trigger thresholds, watts of block
// power, joules integrated over seconds — and a single Kelvin/Celsius or
// W/J slip silently shifts every threshold crossing (the trigger
// comparison in Skadron's HotSpot formulation and the integral-controller
// gain analysis of Rao et al. both break this way).
//
// Units are inferred from two sources:
//
//   - identifier suffixes: tempC, powerW, energyJ, rateHz, dtSec, temp_k —
//     a recognized unit token terminating a camelCase or snake_case name
//     of floating-point type;
//   - declaration annotations: a `unit:X` marker in the doc or line
//     comment of a var, const, field, or parameter declaration, e.g.
//     `Trigger float64 // unit:C`.
//
// The analyzer flags (a) addition, subtraction, and comparison of
// operands with different known units (°C + K, W − J, …), and (b)
// assignment of an expression with a known unit to a name carrying a
// different one, applying the product algebra W·s = J (so
// `joules = watts * seconds` is accepted and `watts = joules * seconds`
// is not). Unknown units propagate silently: only definite conflicts are
// reported.
package unitcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"hybriddtm/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "unitcheck",
	Doc:  "flag arithmetic and assignments mixing conflicting temperature/power/energy/time units",
	Run:  run,
}

// Unit names: "K" kelvin, "C" celsius, "W" watts, "J" joules, "s"
// seconds, "Hz" hertz. The empty string is "unknown"; the constant one
// marks a known-dimensionless ratio.
const dimensionless = "1"

// suffixUnits maps a recognized trailing name token to its unit. Single
// letters must follow a lowercase letter or digit (tempK, vdd2C); longer
// tokens must start a new camelCase word or follow an underscore.
var suffixUnits = map[string]string{
	"K": "K", "C": "C", "W": "W", "J": "J",
	"Hz": "Hz", "Sec": "s", "Secs": "s", "Seconds": "s",
	"Kelvin": "K", "Celsius": "C", "Watts": "W", "Joules": "J",
}

// wholeNames maps a full (case-insensitive) identifier to its unit.
var wholeNames = map[string]string{
	"kelvin": "K", "celsius": "C", "watts": "W", "joules": "J",
	"seconds": "s", "secs": "s", "hertz": "Hz",
}

// mulTable gives the unit of a product; division inverts it.
var mulTable = map[[2]string]string{
	{"W", "s"}: "J", {"s", "W"}: "J",
	{"Hz", "s"}: dimensionless, {"s", "Hz"}: dimensionless,
}

var annotationRE = regexp.MustCompile(`unit:([A-Za-z]+)`)

type checker struct {
	pass *analysis.Pass
	// annotated maps declared objects to the unit from their `unit:X`
	// doc/line comment.
	annotated map[types.Object]string
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{pass: pass, annotated: make(map[types.Object]string)}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		c.collectAnnotations(f)
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				c.checkBinary(n)
			case *ast.AssignStmt:
				c.checkAssign(n)
			case *ast.ValueSpec:
				c.checkValueSpec(n)
			}
			return true
		})
	}
	return nil, nil
}

// collectAnnotations records `unit:X` markers on value and field
// declarations.
func (c *checker) collectAnnotations(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			// A single-spec declaration's doc attaches to the GenDecl.
			if u := commentUnit(n.Doc); u != "" {
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, id := range vs.Names {
						if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
							c.annotated[obj] = u
						}
					}
				}
			}
		case *ast.ValueSpec:
			u := commentUnit(n.Doc, n.Comment)
			if u != "" {
				for _, id := range n.Names {
					if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
						c.annotated[obj] = u
					}
				}
			}
		case *ast.Field:
			u := commentUnit(n.Doc, n.Comment)
			if u != "" {
				for _, id := range n.Names {
					if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
						c.annotated[obj] = u
					}
				}
			}
		}
		return true
	})
}

func commentUnit(groups ...*ast.CommentGroup) string {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := annotationRE.FindStringSubmatch(g.Text()); m != nil {
			if u, ok := normalizeUnit(m[1]); ok {
				return u
			}
		}
	}
	return ""
}

func normalizeUnit(s string) (string, bool) {
	switch s {
	case "K", "C", "W", "J", "Hz":
		return s, true
	case "k", "c", "w", "j", "hz":
		return strings.ToUpper(s[:1]) + s[1:], true
	case "s", "S", "sec", "Sec":
		return "s", true
	}
	if u, ok := wholeNames[strings.ToLower(s)]; ok {
		return u, true
	}
	return "", false
}

func (c *checker) checkBinary(b *ast.BinaryExpr) {
	switch b.Op {
	case token.ADD, token.SUB,
		token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return
	}
	ux, uy := c.unitOf(b.X), c.unitOf(b.Y)
	if ux == "" || uy == "" || ux == uy || ux == dimensionless || uy == dimensionless {
		return
	}
	if (ux == "K" && uy == "C") || (ux == "C" && uy == "K") {
		c.pass.Reportf(b.OpPos,
			"mixes Kelvin and Celsius operands (%s %s %s): convert explicitly — the 273.15 offset makes this always wrong",
			ux, b.Op, uy)
		return
	}
	c.pass.Reportf(b.OpPos, "mixes units: %s operand %s %s operand", ux, b.Op, uy)
}

func (c *checker) checkAssign(a *ast.AssignStmt) {
	var rhs []ast.Expr
	if len(a.Lhs) == len(a.Rhs) {
		rhs = a.Rhs
	} else {
		return // multi-value call: result units unknown
	}
	for i, lhs := range a.Lhs {
		lu := c.unitOfName(lhs)
		if lu == "" {
			continue
		}
		var ru string
		switch a.Tok {
		case token.ASSIGN, token.DEFINE:
			ru = c.unitOf(rhs[i])
		case token.ADD_ASSIGN, token.SUB_ASSIGN:
			ru = c.unitOf(rhs[i])
		default:
			continue
		}
		if ru == "" || ru == dimensionless || ru == lu {
			continue
		}
		c.pass.Reportf(a.TokPos, "assigns %s expression to %s-unit name %s", ru, lu, exprName(lhs))
	}
}

func (c *checker) checkValueSpec(v *ast.ValueSpec) {
	if len(v.Values) != len(v.Names) {
		return
	}
	for i, id := range v.Names {
		lu := c.unitForObject(c.pass.TypesInfo.Defs[id], id.Name)
		if lu == "" {
			continue
		}
		ru := c.unitOf(v.Values[i])
		if ru == "" || ru == dimensionless || ru == lu {
			continue
		}
		c.pass.Reportf(id.Pos(), "declares %s-unit name %s with %s expression", lu, id.Name, ru)
	}
}

// unitOf infers the unit of an expression, "" when unknown.
func (c *checker) unitOf(e ast.Expr) string {
	e = ast.Unparen(e)
	// Only floating-point quantities carry units here; ints are indices
	// and counters (node spW, cycle counts) no matter how they are named.
	if !analysis.IsFloat(c.pass.TypesInfo.TypeOf(e)) {
		return ""
	}
	if c.pass.TypesInfo.Types[e].Value != nil {
		return "" // constants are unit-free glue (273.15, 0.5, …)
	}
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return c.unitOfName(e)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return c.unitOf(e.X)
		}
	case *ast.IndexExpr:
		// An element of a unit-suffixed slice carries the slice's unit:
		// powersW[i] is watts. This is what keeps the flat value arrays of
		// CSR-style kernels (rowPtr/colIdx/val layouts) inside the unit
		// discipline — the container is named once, every access inherits.
		// (unitOfName would reject the container for not being a float
		// itself; the isFloat guard above already vetted the element.)
		switch x := ast.Unparen(e.X).(type) {
		case *ast.Ident:
			return c.unitForObject(c.pass.TypesInfo.Uses[x], x.Name)
		case *ast.SelectorExpr:
			return c.unitForObject(c.pass.TypesInfo.Uses[x.Sel], x.Sel.Name)
		}
	case *ast.CallExpr:
		// Method/function names count as names: elapsed.Seconds(),
		// dvfs.NominalHz().
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			return nameUnit(fun.Name)
		case *ast.SelectorExpr:
			return nameUnit(fun.Sel.Name)
		}
	case *ast.BinaryExpr:
		ux, uy := c.unitOf(e.X), c.unitOf(e.Y)
		switch e.Op {
		case token.ADD, token.SUB:
			if ux != "" && ux == uy {
				return ux
			}
		case token.MUL:
			if u, ok := mulTable[[2]string{ux, uy}]; ok {
				return u
			}
			if ux == dimensionless {
				return uy
			}
			if uy == dimensionless {
				return ux
			}
		case token.QUO:
			if ux != "" && ux == uy {
				return dimensionless
			}
			// Invert the product table: J/s = W, J/W = s. Symmetric
			// entries make the result independent of iteration order.
			for k, v := range mulTable {
				if v == ux && k[0] == uy {
					return k[1]
				}
				if v == ux && k[1] == uy {
					return k[0]
				}
			}
			if uy == dimensionless {
				return ux
			}
		}
	}
	return ""
}

// unitOfName resolves the unit of an identifier or selector: declaration
// annotation first, then name suffix.
func (c *checker) unitOfName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if !analysis.IsFloat(c.pass.TypesInfo.TypeOf(e)) {
			return ""
		}
		return c.unitForObject(c.pass.TypesInfo.Uses[e], e.Name)
	case *ast.SelectorExpr:
		if !analysis.IsFloat(c.pass.TypesInfo.TypeOf(e)) {
			return ""
		}
		return c.unitForObject(c.pass.TypesInfo.Uses[e.Sel], e.Sel.Name)
	}
	return ""
}

func (c *checker) unitForObject(obj types.Object, name string) string {
	if obj != nil {
		if u, ok := c.annotated[obj]; ok {
			return u
		}
	}
	return nameUnit(name)
}

// nameUnit infers a unit from an identifier's trailing token.
func nameUnit(name string) string {
	if u, ok := wholeNames[strings.ToLower(name)]; ok {
		return u
	}
	// snake_case: unit token after the final underscore.
	if i := strings.LastIndex(name, "_"); i >= 0 && i+1 < len(name) {
		tail := name[i+1:]
		if u, ok := normalizeUnit(tail); ok {
			return u
		}
		if u, ok := suffixUnits[tail]; ok {
			return u
		}
		return ""
	}
	// camelCase: longest recognized suffix starting a new word.
	for _, tok := range [...]string{"Seconds", "Secs", "Sec", "Kelvin", "Celsius", "Watts", "Joules", "Hz"} {
		if strings.HasSuffix(name, tok) && len(name) > len(tok) {
			prev := name[len(name)-len(tok)-1]
			if isLowerOrDigit(prev) {
				return suffixUnits[tok]
			}
		}
	}
	// Single capital letter preceded by a lowercase letter or digit.
	if len(name) >= 2 {
		last := name[len(name)-1:]
		if u, ok := suffixUnits[last]; ok && isLowerOrDigit(name[len(name)-2]) {
			return u
		}
	}
	return ""
}

func isLowerOrDigit(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9'
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	}
	return "?"
}
