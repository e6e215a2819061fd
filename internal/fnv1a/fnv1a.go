// Package fnv1a is the hash the runtime places keys with: instances on
// engine shards and history stripes, work items on worklist stripes,
// users on directory stripes. Shard and history stripe numbers name
// directories of a data dir, so the function must never change.
package fnv1a

// Sum32 returns the 32-bit FNV-1a hash of s, the value hash/fnv's
// New32a computes, without allocating.
func Sum32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
