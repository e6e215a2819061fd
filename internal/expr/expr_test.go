package expr

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustEval(t *testing.T, src string, env Env) Value {
	t.Helper()
	v, err := Eval(src, env)
	if err != nil {
		t.Fatalf("Eval(%q) error: %v", src, err)
	}
	return v
}

func TestEvalLiterals(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{"1", Int(1)},
		{"42", Int(42)},
		{"-7", Int(-7)},
		{"3.5", Float(3.5)},
		{"1e3", Float(1000)},
		{"2.5e-1", Float(0.25)},
		{`"hello"`, String("hello")},
		{`'world'`, String("world")},
		{`"a\nb"`, String("a\nb")},
		{`"A"`, String("A")},
		{"true", True},
		{"false", False},
		{"null", Null},
		{"nil", Null},
		{"[1, 2, 3]", List(Int(1), Int(2), Int(3))},
		{"[]", List()},
		{`{"a": 1, b: 2}`, Map(map[string]Value{"a": Int(1), "b": Int(2)})},
		{"{}", Map(map[string]Value{})},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, EmptyEnv)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalArithmetic(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{"1 + 2", Int(3)},
		{"10 - 4", Int(6)},
		{"6 * 7", Int(42)},
		{"7 / 2", Int(3)},
		{"7 % 3", Int(1)},
		{"7.0 / 2", Float(3.5)},
		{"1 + 2 * 3", Int(7)},
		{"(1 + 2) * 3", Int(9)},
		{"2 * 3 + 4 * 5", Int(26)},
		{"-3 + 5", Int(2)},
		{"-(3 + 5)", Int(-8)},
		{"1.5 + 2", Float(3.5)},
		{"10 % 4.5", Float(1)},
		{`"foo" + "bar"`, String("foobar")},
		{"[1] + [2, 3]", List(Int(1), Int(2), Int(3))},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, EmptyEnv)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalComparisons(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"1 < 2", true},
		{"2 < 1", false},
		{"2 <= 2", true},
		{"3 > 2", true},
		{"3 >= 4", false},
		{"1 == 1", true},
		{"1 == 1.0", true},
		{"1 != 2", true},
		{`"a" < "b"`, true},
		{`"abc" == "abc"`, true},
		{"true == true", true},
		{"null == null", true},
		{"1 == null", false},
		{"[1,2] == [1,2]", true},
		{"[1,2] == [2,1]", false},
		{`{"a":1} == {"a":1}`, true},
		{`{"a":1} == {"a":2}`, false},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, EmptyEnv)
		if b, _ := got.AsBool(); b != tt.want {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalLogical(t *testing.T) {
	tests := []struct {
		src  string
		want bool
	}{
		{"true && true", true},
		{"true && false", false},
		{"false || true", true},
		{"false || false", false},
		{"!true", false},
		{"!false", true},
		{"not false", true},
		{"true and true", true},
		{"false or true", true},
		{"1 < 2 && 2 < 3", true},
		{"1 < 2 || boom()", true},  // short-circuit: boom is never called
		{"1 > 2 && boom()", false}, // short-circuit
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, EmptyEnv)
		if b, _ := got.AsBool(); b != tt.want {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalConditional(t *testing.T) {
	tests := []struct {
		src  string
		want Value
	}{
		{"true ? 1 : 2", Int(1)},
		{"false ? 1 : 2", Int(2)},
		{`1 < 2 ? "yes" : "no"`, String("yes")},
		{"false ? 1 : false ? 2 : 3", Int(3)},
		{"true ? false ? 1 : 2 : 3", Int(2)},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, EmptyEnv)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalMembership(t *testing.T) {
	env := MapEnv{
		"status": String("approved"),
		"tags":   List(String("vip"), String("eu")),
		"data":   Map(map[string]Value{"amount": Int(500)}),
	}
	tests := []struct {
		src  string
		want bool
	}{
		{`status in ["approved", "rejected"]`, true},
		{`"pending" in ["approved", "rejected"]`, false},
		{`"vip" in tags`, true},
		{`"amount" in data`, true},
		{`"missing" in data`, false},
		{`"rov" in "approved"`, true},
		{`"xyz" in "approved"`, false},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, env)
		if b, _ := got.AsBool(); b != tt.want {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalVariablesAndAccess(t *testing.T) {
	env := MapEnv{
		"amount": Int(1500),
		"order": Map(map[string]Value{
			"items":    List(Int(10), Int(20), Int(30)),
			"customer": Map(map[string]Value{"name": String("ada")}),
		}),
	}
	tests := []struct {
		src  string
		want Value
	}{
		{"amount", Int(1500)},
		{"amount * 2", Int(3000)},
		{"order.items[0]", Int(10)},
		{"order.items[-1]", Int(30)},
		{"order.customer.name", String("ada")},
		{`order["items"][1]`, Int(20)},
		{"order.missing", Null},
		{`"abc"[1]`, String("b")},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, env)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalFunctions(t *testing.T) {
	env := MapEnv{"xs": List(Int(4), Int(1), Int(9))}
	tests := []struct {
		src  string
		want Value
	}{
		{`len("hello")`, Int(5)},
		{"len(xs)", Int(3)},
		{"len({})", Int(0)},
		{"empty([])", True},
		{"empty(xs)", False},
		{"defined(null)", False},
		{"defined(1)", True},
		{`contains("hello", "ell")`, True},
		{`startsWith("hello", "he")`, True},
		{`endsWith("hello", "lo")`, True},
		{`upper("abc")`, String("ABC")},
		{`lower("ABC")`, String("abc")},
		{`trim("  x  ")`, String("x")},
		{`split("a,b,c", ",")`, List(String("a"), String("b"), String("c"))},
		{`join(["a","b"], "-")`, String("a-b")},
		{"abs(-5)", Int(5)},
		{"abs(-5.5)", Float(5.5)},
		{"min(3, 1, 2)", Int(1)},
		{"max(xs)", Int(9)},
		{"sum(xs)", Int(14)},
		{"sum(1.5, 2.5)", Float(4)},
		{"avg([2, 4])", Float(3)},
		{"floor(3.7)", Int(3)},
		{"ceil(3.2)", Int(4)},
		{"round(3.5)", Int(4)},
		{`int("42")`, Int(42)},
		{"int(3.9)", Int(3)},
		{"int(true)", Int(1)},
		{`float("2.5")`, Float(2.5)},
		{"str(42)", String("42")},
		{`coalesce(null, null, 3)`, Int(3)},
		{`coalesce(null, "x", "y")`, String("x")},
	}
	for _, tt := range tests {
		got := mustEval(t, tt.src, env)
		if !got.Equal(tt.want) {
			t.Errorf("Eval(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	tests := []struct {
		src     string
		env     Env
		wantSub string
	}{
		{"1 / 0", EmptyEnv, "division by zero"},
		{"1 % 0", EmptyEnv, "modulo by zero"},
		{"1.0 / 0.0", EmptyEnv, "division by zero"},
		{"missing + 1", EmptyEnv, "unbound variable"},
		{"boom()", EmptyEnv, "unknown function"},
		{`1 + "a"`, EmptyEnv, "arithmetic requires numbers"},
		{`1 < "a"`, EmptyEnv, "cannot order"},
		{"-true", EmptyEnv, "cannot negate"},
		{"[1,2][5]", EmptyEnv, "out of range"},
		{"[1,2][true]", EmptyEnv, "index must be an int"},
		{"(1).x", EmptyEnv, "cannot access member"},
		{"1 in 2", EmptyEnv, "'in' requires"},
		{"len()", EmptyEnv, "want 1 argument"},
		{"avg([])", EmptyEnv, "avg of empty"},
		{`int("zzz")`, EmptyEnv, "cannot parse"},
	}
	for _, tt := range tests {
		_, err := Eval(tt.src, tt.env)
		if err == nil {
			t.Errorf("Eval(%q): want error containing %q, got nil", tt.src, tt.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tt.wantSub) {
			t.Errorf("Eval(%q) error = %q, want substring %q", tt.src, err, tt.wantSub)
		}
	}
}

func TestSyntaxErrors(t *testing.T) {
	bad := []string{
		"", "1 +", "(1", "[1, 2", `{"a": }`, `"unterminated`,
		"1 ? 2", "a..b", "@", "1 2", "foo(1,", "{1: 2}", "3(4)",
		`"bad \q escape"`,
	}
	for _, src := range bad {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): want syntax error, got nil", src)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Errorf("Compile(%q): error is %T, want *SyntaxError", src, err)
		}
	}
}

func TestProgramVars(t *testing.T) {
	p := MustCompile(`amount > limit && status in allowed && len(items) > 0`)
	got := p.Vars()
	want := []string{"allowed", "amount", "items", "limit", "status"}
	if len(got) != len(want) {
		t.Fatalf("Vars() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars() = %v, want %v", got, want)
		}
	}
}

func TestProgramReprRoundTrip(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"a && b || !c",
		`x in [1, 2, 3] ? "in" : "out"`,
		"order.items[0] + len(xs)",
		`{"k": 1, "j": [true, null]}`,
		"min(1, 2) + max([3, 4])",
	}
	env := MapEnv{
		"a": True, "b": False, "c": True, "x": Int(2),
		"order": Map(map[string]Value{"items": List(Int(7))}),
		"xs":    List(Int(1), Int(2)),
	}
	for _, src := range srcs {
		p1 := MustCompile(src)
		p2, err := Compile(p1.String())
		if err != nil {
			t.Fatalf("re-Compile(%q) from %q: %v", p1.String(), src, err)
		}
		v1, err1 := p1.Eval(env)
		v2, err2 := p2.Eval(env)
		if err1 != nil || err2 != nil {
			t.Fatalf("eval error: %v / %v", err1, err2)
		}
		if !v1.Equal(v2) {
			t.Errorf("round-trip of %q: %v != %v", src, v1, v2)
		}
	}
}

func TestEvalBool(t *testing.T) {
	tests := []struct {
		src  string
		env  Env
		want bool
	}{
		{"amount > 100", MapEnv{"amount": Int(500)}, true},
		{"amount > 100", MapEnv{"amount": Int(50)}, false},
		{`"x"`, EmptyEnv, true},
		{`""`, EmptyEnv, false},
		{"0", EmptyEnv, false},
		{"null", EmptyEnv, false},
		{"[0]", EmptyEnv, true},
	}
	for _, tt := range tests {
		p := MustCompile(tt.src)
		got, err := p.EvalBool(tt.env)
		if err != nil {
			t.Fatalf("EvalBool(%q): %v", tt.src, err)
		}
		if got != tt.want {
			t.Errorf("EvalBool(%q) = %v, want %v", tt.src, got, tt.want)
		}
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(5), "5"},
		{Float(2.5), "2.5"},
		{Float(3), "3.0"},
		{String("hi"), `"hi"`},
		{True, "true"},
		{Null, "null"},
		{List(Int(1), String("a")), `[1, "a"]`},
		{Map(map[string]Value{"b": Int(2), "a": Int(1)}), `{"a": 1, "b": 2}`},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestFromGoToGo(t *testing.T) {
	in := map[string]any{
		"n":    int(3),
		"f":    2.5,
		"s":    "x",
		"b":    true,
		"nil":  nil,
		"list": []any{int64(1), "two"},
	}
	v, err := FromGo(in)
	if err != nil {
		t.Fatalf("FromGo: %v", err)
	}
	out, ok := v.ToGo().(map[string]any)
	if !ok {
		t.Fatalf("ToGo() is %T, want map", v.ToGo())
	}
	if out["n"] != int64(3) || out["f"] != 2.5 || out["s"] != "x" || out["b"] != true || out["nil"] != nil {
		t.Errorf("round trip mismatch: %#v", out)
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct{}{}) should fail")
	}
}

func TestFuncSetExtend(t *testing.T) {
	custom := DefaultFuncs.Extend(map[string]Func{
		"double": func(args []Value) (Value, error) {
			if err := arity(args, 1); err != nil {
				return Null, err
			}
			i, _ := args[0].AsInt()
			return Int(2 * i), nil
		},
	})
	p, err := CompileWith("double(21)", custom)
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Eval(EmptyEnv)
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.AsInt(); i != 42 {
		t.Errorf("double(21) = %v, want 42", v)
	}
	// Base set must be unchanged.
	if _, err := Eval("double(1)", EmptyEnv); err == nil {
		t.Error("DefaultFuncs should not know double")
	}
	names := custom.Names()
	found := false
	for _, n := range names {
		if n == "double" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v, missing double", names)
	}
}

// Property: integer arithmetic in the language matches Go semantics.
func TestQuickIntArithmetic(t *testing.T) {
	f := func(a, b int32) bool {
		env := MapEnv{"a": Int(int64(a)), "b": Int(int64(b))}
		v := mustEval(t, "a + b * 2 - (a - b)", env)
		want := int64(a) + int64(b)*2 - (int64(a) - int64(b))
		got, _ := v.AsInt()
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: comparison operators are consistent with Go ordering.
func TestQuickComparisons(t *testing.T) {
	f := func(a, b int16) bool {
		env := MapEnv{"a": Int(int64(a)), "b": Int(int64(b))}
		lt := mustEval(t, "a < b", env).Truthy()
		gt := mustEval(t, "a > b", env).Truthy()
		eq := mustEval(t, "a == b", env).Truthy()
		// Exactly one of lt/gt/eq holds.
		n := 0
		for _, x := range []bool{lt, gt, eq} {
			if x {
				n++
			}
		}
		return n == 1 && lt == (a < b) && gt == (a > b) && eq == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Value.String() of scalar values re-parses and compares equal.
func TestQuickValueStringRoundTrip(t *testing.T) {
	f := func(i int64, s string, b bool) bool {
		for _, v := range []Value{Int(i), String(s), Bool(b)} {
			got, err := Eval(v.String(), EmptyEnv)
			if err != nil || !got.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Every ASCII byte, and bytes that are not valid UTF-8, survive
// String() then Eval: whatever escape strconv.Quote picks (\a \b \f \v,
// \x, \u) the lexer reads back.
func TestValueStringRoundTripEveryByte(t *testing.T) {
	var inputs []string
	for c := 0; c < 0x80; c++ {
		inputs = append(inputs, string([]byte{byte(c)}), "a"+string([]byte{byte(c)})+"z")
	}
	inputs = append(inputs, "\xff", "\x80abc", "ok\xc3", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\u00a0\ufeff\U0001F600")
	for _, s := range inputs {
		v := String(s)
		got, err := Eval(v.String(), EmptyEnv)
		if err != nil || !got.Equal(v) {
			t.Errorf("%q: String() = %s, Eval = %v, %v", s, v.String(), got, err)
		}
	}
}

// Property: Equal is reflexive and symmetric over generated values.
func TestQuickEqualReflexiveSymmetric(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		vs := []Value{Int(a), Int(b), String(s1), String(s2),
			List(Int(a), String(s1)), Map(map[string]Value{"k": Int(b)})}
		for _, x := range vs {
			if !x.Equal(x) {
				return false
			}
			for _, y := range vs {
				if x.Equal(y) != y.Equal(x) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentEval(t *testing.T) {
	p := MustCompile("a * 2 + len(s)")
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			env := MapEnv{"a": Int(int64(g)), "s": String("xx")}
			for i := 0; i < 200; i++ {
				v, err := p.Eval(env)
				if err != nil {
					t.Error(err)
					break
				}
				if got, _ := v.AsInt(); got != int64(g)*2+2 {
					t.Errorf("got %d", got)
					break
				}
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
