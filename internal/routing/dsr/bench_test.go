package dsr

import (
	"math/rand"
	"testing"

	"rcast/internal/phy"
)

// benchPaths draws count loop-free routes rooted at owner 0 over a
// 400-node ID space, with first hops from a handful of neighbours and 3–10
// hops, the shape overheard source routes take in the 400-node cell.
func benchPaths(rng *rand.Rand, count int) [][]phy.NodeID {
	out := make([][]phy.NodeID, count)
	for k := range out {
		p := []phy.NodeID{0, phy.NodeID(1 + rng.Intn(8))}
		for hops := 3 + rng.Intn(8); len(p) < hops; {
			if id := phy.NodeID(1 + rng.Intn(399)); indexOf(p, id) < 0 {
				p = append(p, id)
			}
		}
		out[k] = p
	}
	return out
}

// fullCache returns a default-capacity (64-route) cache filled to capacity.
func fullCache(rng *rand.Rand) *Cache {
	c := NewCache(0, 0, 0)
	for c.Len() < 64 {
		c.Add(0, benchPaths(rng, 1)[0])
	}
	return c
}

// BenchmarkCacheAdd offers a full cache a fixed cycle of candidate routes:
// the routes it starts with, fresh routes and prefixes of the starting
// routes, so calls mix rejected duplicates and prefixes with insertions
// that evict the oldest entry.
func BenchmarkCacheAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := fullCache(rng)
	offers := append(c.Routes(0), benchPaths(rng, 64)...)
	for _, p := range c.Routes(0)[:32] {
		offers = append(offers, p[:len(p)-1]) // prefixes of held routes
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(0, offers[i%len(offers)])
	}
}

// BenchmarkCacheFind looks up the shortest route to each node ID in turn
// in a full cache, hits and misses alike.
func BenchmarkCacheFind(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	c := fullCache(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Find(0, phy.NodeID(1+i%399))
	}
}

// BenchmarkCacheRemoveLink invalidates a link taken from a cached route, so
// every call truncates at least one entry. The full cache is restored from
// a snapshot of its entries each iteration; RemoveLink only re-slices
// paths, so restoring the entry headers restores the cache exactly.
func BenchmarkCacheRemoveLink(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	c := fullCache(rng)
	snapshot := append([]cacheEntry(nil), c.entries...)
	links := make([][2]phy.NodeID, 64)
	for k := range links {
		p := snapshot[rng.Intn(len(snapshot))].path
		j := rng.Intn(len(p) - 1)
		links[k] = [2]phy.NodeID{p[j], p[j+1]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.entries = append(c.entries[:0], snapshot...)
		l := links[i%len(links)]
		c.RemoveLink(l[0], l[1])
	}
}
