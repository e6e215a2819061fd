package expr

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

func TestTaggedJSONRoundTrip(t *testing.T) {
	values := []Value{
		Null,
		True,
		False,
		Int(0),
		Int(-42),
		Int(1<<62 + 7), // beyond float64 precision: must survive
		Float(2.5),
		Float(-0.125),
		String(""),
		String("hello \"world\"\nwith escapes"),
		List(),
		List(Int(1), String("two"), List(Float(3))),
		Map(map[string]Value{"a": Int(1), "nested": Map(map[string]Value{"b": Null})}),
	}
	for _, v := range values {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Value
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !back.Equal(v) {
			t.Errorf("round trip %v -> %s -> %v", v, data, back)
		}
		// Kinds must be preserved exactly (Int stays Int).
		if back.Kind() != v.Kind() {
			t.Errorf("kind changed: %v -> %v", v.Kind(), back.Kind())
		}
	}
}

func TestTaggedJSONIntPrecision(t *testing.T) {
	// Plain JSON would collapse this to a float64 and lose precision.
	big := Int(9007199254740993) // 2^53 + 1
	data, _ := json.Marshal(big)
	var back Value
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	i, ok := back.AsInt()
	if !ok || i != 9007199254740993 {
		t.Errorf("big int lost: %v", back)
	}
}

func TestTaggedJSONErrors(t *testing.T) {
	bad := []string{
		`{"t":"zzz"}`,
		`{"t":"i","v":"not-a-number"}`,
		`{"t":"b","v":"yes"}`,
		`[1,2]`,
	}
	for _, src := range bad {
		var v Value
		if err := json.Unmarshal([]byte(src), &v); err == nil {
			t.Errorf("Unmarshal(%s) should fail", src)
		}
	}
}

func TestTaggedJSONInStructs(t *testing.T) {
	type box struct {
		Vars map[string]Value `json:"vars"`
	}
	in := box{Vars: map[string]Value{"n": Int(5), "s": String("x")}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out box
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Vars["n"].Equal(Int(5)) || !out.Vars["s"].Equal(String("x")) {
		t.Errorf("struct round trip: %v", out.Vars)
	}
}

// Property: arbitrary scalar values round-trip through the tagged
// codec with kind and content preserved.
func TestQuickTaggedJSONRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool) bool {
		for _, v := range []Value{Int(i), Float(fl), String(s), Bool(b),
			List(Int(i), String(s)), Map(map[string]Value{"k": Float(fl)})} {
			data, err := json.Marshal(v)
			if err != nil {
				return false
			}
			var back Value
			if err := json.Unmarshal(data, &back); err != nil {
				return false
			}
			if back.Kind() != v.Kind() {
				return false
			}
			// NaN never equals itself; compare via representation.
			if !back.Equal(v) && v.String() != back.String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refValue decodes the way Value did before UnmarshalJSON learnt to
// split the canonical form in place: encoding/json reads the tagged
// envelope, then the payload, at every level (lists and maps recurse
// through encoding/json into refValue). The oracle for
// FuzzValueUnmarshalJSON.
type refValue struct{ Value }

func (r *refValue) UnmarshalJSON(data []byte) error {
	var t taggedValue
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	switch t.T {
	case "n":
		r.Value = Null
	case "b":
		var b bool
		if err := json.Unmarshal(t.V, &b); err != nil {
			return err
		}
		r.Value = Bool(b)
	case "i":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return err
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return err
		}
		r.Value = Int(i)
	case "f":
		var f float64
		if err := json.Unmarshal(t.V, &f); err != nil {
			return err
		}
		r.Value = Float(f)
	case "s":
		var s string
		if err := json.Unmarshal(t.V, &s); err != nil {
			return err
		}
		r.Value = String(s)
	case "l":
		var refs []refValue
		if err := json.Unmarshal(t.V, &refs); err != nil {
			return err
		}
		var l []Value
		if refs != nil {
			l = make([]Value, len(refs))
		}
		for i, ref := range refs {
			l[i] = ref.Value
		}
		r.Value = List(l...)
	case "m":
		var refs map[string]refValue
		if err := json.Unmarshal(t.V, &refs); err != nil {
			return err
		}
		var m map[string]Value
		if refs != nil {
			m = make(map[string]Value, len(refs))
		}
		for k, ref := range refs {
			m[k] = ref.Value
		}
		r.Value = Map(m)
	default:
		return fmt.Errorf("unknown tag %q", t.T)
	}
	return nil
}

// checkUnmarshalAgainstReference: on any input the decoder fails
// exactly when the reference does and otherwise returns the same
// value, which survives Marshal → Unmarshal.
func checkUnmarshalAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	var got Value
	gotErr := got.UnmarshalJSON(data)
	var ref refValue
	wantErr := ref.UnmarshalJSON(data)
	want := ref.Value
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("UnmarshalJSON(%q) error = %v, reference error = %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UnmarshalJSON(%q) = %#v, reference %#v", data, got, want)
	}
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("marshal %#v (from %q): %v", got, data, err)
	}
	var back Value
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("re-encoded %q as %q, which fails to decode: %v", data, enc, err)
	}
	if back.Kind() != got.Kind() || !back.Equal(got) {
		t.Fatalf("round trip of %q via %q: %#v, want %#v", data, enc, back, got)
	}
}

func unmarshalSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, v := range []Value{
		Null, True, False, Int(0), Int(-42), Int(1<<62 + 7), Float(2.5), Float(-0.125), Float(1e300),
		String(""), String("north"), String("hello \"world\"\nwith escapes"), String("zoë 事件   <&>"),
		List(), List(Int(1), String("two"), List(Float(3)), Null),
		Map(map[string]Value{}), Map(map[string]Value{"a": Int(1), "nested": Map(map[string]Value{"b": Null})}),
	} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, s := range []string{
		// Spellings encoding/json reads and the in-place split must
		// decline or read alike.
		`{"v":"5","t":"i"}`, `{ "t":"i","v":"5"}`, `{"t":"i", "v":"5"}`, `{"t":"i","v": "5"}`, `{"t":"i","v":"5" }`,
		`{"t":"i","v":"5"} `, `{"t":"s","v":"a","v":"b"}`, `{"t":"s","v":"a","x":1}`, `{"t":"s","t":"i","v":"5"}`,
		`{"T":"b","V":true}`, `{"t":"n","v":123}`, `{"t":"n","v":@}`, `{"t":"n","v":}`, `{"t":"n" }`,
		`{"t":"b","v":null}`, `{"t":"b","v":1}`, `{"t":"b","v":"yes"}`, `{"t":"b"}`, `{"t":"b","v":true}}`,
		`{"t":"i","v":null}`, `{"t":"i","v":5}`, `{"t":"i","v":"+5"}`, `{"t":"i","v":"5_0"}`, `{"t":"i","v":"0x10"}`,
		`{"t":"i","v":"9223372036854775808"}`, `{"t":"i","v":"5"}`, `{"t":"i","v":""}`, `{"t":"i","v":"not-a-number"}`,
		`{"t":"f","v":null}`, `{"t":"f","v":1e999}`, `{"t":"f","v":01}`, `{"t":"f","v":.5}`, `{"t":"f","v":"2.5"}`, `{"t":"f","v":-0}`,
		`{"t":"s","v":null}`, `{"t":"s","v":5}`, `{"t":"s","v":"aA"}`, `{"t":"s","v":"a"b"}`, `{"t":"s","v":"a\"}`,
		"{\"t\":\"s\",\"v\":\"a\x01b\"}", "{\"t\":\"s\",\"v\":\"a\xffb\"}", "{\"t\":\"s\",\"v\":\"a\x7fb\"}",
		`{"t":"l","v":null}`, `{"t":"l","v":[null]}`, `{"t":"l","v":[{"t":"i","v":"1"},{"t":"zzz"}]}`, `{"t":"l","v":{}}`,
		`{"t":"m","v":null}`, `{"t":"m","v":{"a":null}}`, `{"t":"m","v":{"a":{},"a":{"t":"b","v":true}}}`, `{"t":"m","v":{"a":{"t":"s","v":"x"},"a":{"t":"b","v":true}}}`, `{"t":"m","v":[]}`,
		`{"t":"zzz"}`, `{"t":"z"}`, `{"t":""}`, `{"t":"\""}`, `{"t":"ab","v":1}`, `{"t":"n"`, `{"t":"`,
		`{}`, `null`, `[1,2]`, `5`, `"s"`, ``, `{`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestUnmarshalMatchesReference(t *testing.T) {
	for _, seed := range unmarshalSeeds(t) {
		checkUnmarshalAgainstReference(t, seed)
	}
}

func FuzzValueUnmarshalJSON(f *testing.F) {
	for _, seed := range unmarshalSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkUnmarshalAgainstReference(t, data)
	})
}
