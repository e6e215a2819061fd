package expr

import (
	"math"
	"testing"
)

// TestBinaryRoundTrip: every kind reads back as itself, floats bit for
// bit (NaN, ±Inf and -0 included), strings byte for byte.
func TestBinaryRoundTrip(t *testing.T) {
	for _, v := range []Value{
		Null, True, False, Int(0), Int(math.MinInt64), Int(math.MaxInt64),
		Float(2.5), Float(math.NaN()), Float(math.Inf(-1)), Float(math.Copysign(0, -1)),
		String(""), String("zoë \xff\x00"),
		List(), List(Int(1), Float(1), List(Null)),
		Map(nil), Map(map[string]Value{"b": Int(2), "a": Map(map[string]Value{"": False}), "\xff": String("x")}),
	} {
		rec := AppendBinary([]byte{0xee}, v)
		got, next, ok := readBinary(rec, 1, 0)
		if !ok || next != len(rec) {
			t.Fatalf("%s: read ok=%v next=%d of %d", v, ok, next, len(rec))
		}
		if got.Kind() != v.Kind() || got.String() != v.String() {
			t.Errorf("%s (%s) read back as %s (%s)", v, v.Kind(), got, got.Kind())
		}
		if f, isFloat := v.AsFloat(); isFloat && v.Kind() == KindFloat {
			if g, _ := got.AsFloat(); math.Float64bits(g) != math.Float64bits(f) {
				t.Errorf("float %v read back with bits %x", f, math.Float64bits(g))
			}
		}
	}
}

// TestBinaryDeclines: what AppendBinary cannot have written is an
// error, never a value.
func TestBinaryDeclines(t *testing.T) {
	for name, rec := range map[string][]byte{
		"empty":             {},
		"unknown tag":       {8},
		"truncated int":     {binInt, 0x80},
		"truncated float":   {binFloat, 1, 2, 3},
		"string past end":   {binString, 5, 'a'},
		"list past end":     {binList, 2, binNull},
		"huge list":         {binList, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"map keys unsorted": {binMap, 2, 1, 'b', binNull, 1, 'a', binNull},
		"map key repeated":  {binMap, 2, 1, 'a', binNull, 1, 'a', binNull},
	} {
		if v, _, ok := readBinary(rec, 0, 0); ok {
			t.Errorf("%s: read %s", name, v)
		}
	}
	deep := make([]byte, 0, maxBinaryDepth+2)
	for i := 0; i <= maxBinaryDepth+1; i++ {
		deep = append(deep, binList, 1)
	}
	if _, _, ok := readBinary(append(deep, binNull), 0, 0); ok {
		t.Error("read a list nested past maxBinaryDepth")
	}
}
