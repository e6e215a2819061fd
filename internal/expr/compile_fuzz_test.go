package expr

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"strconv"
	"testing"
)

// fuzzEnv binds the variable names the unit tests use to values of
// every kind, so fuzzed programs reach comparisons, membership,
// indexing and function calls with bound operands.
var fuzzEnv = MapEnv{
	"a": Int(3), "b": Int(-2), "n": Int(0), "v": Int(5), "x": Int(2),
	"w": Float(2.5), "y": Float(-0.5), "amount": Int(1500), "limit": Float(1000),
	"s": String("hello"), "u": String("x"), "region": String("EU"), "status": String("approved"),
	"flag": True, "none": Null,
	"tags":    List(String("vip"), String("new")),
	"items":   List(Int(10), Int(20)),
	"allowed": List(String("approved"), String("pending")),
	"data":    Map(map[string]Value{"amount": Int(7), "x": Int(1)}),
}

// compileSeeds returns every string literal of the package's
// expression tests: the sources they compile, plus messages and names
// that make fair junk inputs.
func compileSeeds(tb testing.TB) []string {
	tb.Helper()
	var seeds []string
	fset := gotoken.NewFileSet()
	for _, name := range []string{"expr_test.go", "predicate_test.go"} {
		file, err := goparser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					seeds = append(seeds, s)
				}
			}
			return true
		})
	}
	return seeds
}

// holds evaluates one atom against a bound value.
func holds(a Predicate, v Value) bool {
	if a.Kind == PredEq {
		for _, want := range a.Values {
			if v.Equal(want) {
				return true
			}
		}
		return false
	}
	c, _ := v.Compare(a.Bound)
	switch a.Op {
	case RangeLT:
		return c < 0
	case RangeLE:
		return c <= 0
	case RangeGT:
		return c > 0
	default:
		return c >= 0
	}
}

// checkCompile is the compiler's oracle: Compile never panics, Eval of
// what compiles never panics, and where Predicates decomposes a program
// and its preconditions hold (every atom's variable bound, a range
// atom's bound of the variable's class), the conjunction of the atoms
// is what EvalBool answers.
func checkCompile(t *testing.T, src string) {
	p, err := Compile(src)
	if err != nil {
		return
	}
	p.Eval(fuzzEnv)
	atoms := p.Predicates()
	if atoms == nil {
		return
	}
	want := true
	for _, a := range atoms {
		v, ok := fuzzEnv[a.Var]
		if !ok {
			return
		}
		if a.Kind == PredRange {
			if _, err := v.Compare(a.Bound); err != nil {
				return
			}
		}
		want = want && holds(a, v)
	}
	got, err := p.EvalBool(fuzzEnv)
	if err != nil {
		t.Fatalf("%q: atoms %+v evaluate, EvalBool fails: %v", src, atoms, err)
	}
	if got != want {
		t.Fatalf("%q: atoms %+v give %v, EvalBool %v", src, atoms, want, got)
	}
}

func FuzzCompile(f *testing.F) {
	for _, src := range compileSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(checkCompile)
}
