package fnv1a

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

func reference(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// TestSum32MatchesHashFNV pins placement: shard, stripe and data-dir
// layout stay what hash/fnv computes.
func TestSum32MatchesHashFNV(t *testing.T) {
	keys := []string{"", "a", "bench-pipeline-1528", "order-42", "zoë", "事件-7", "\x00\xff\x80", "IMO9321483"}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		b := make([]byte, r.Intn(40))
		r.Read(b)
		keys = append(keys, string(b))
	}
	for _, k := range keys {
		if got, want := Sum32(k), reference(k); got != want {
			t.Fatalf("Sum32(%q) = %#x, hash/fnv says %#x", k, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Sum32("bench-pipeline-1528") }); allocs != 0 {
		t.Errorf("Sum32 allocates %.0f times", allocs)
	}
}
