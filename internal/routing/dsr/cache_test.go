package dsr

import (
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

func path(ids ...int) []phy.NodeID {
	out := make([]phy.NodeID, len(ids))
	for i, id := range ids {
		out[i] = phy.NodeID(id)
	}
	return out
}

func samePath(a, b []phy.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCacheAddAndFind(t *testing.T) {
	c := NewCache(0, 0, 0)
	if !c.Add(0, path(0, 1, 2, 3)) {
		t.Fatal("Add rejected valid path")
	}
	if got := c.Find(0, 3); !samePath(got, path(0, 1, 2, 3)) {
		t.Fatalf("Find(3) = %v", got)
	}
	// Routes through a node are truncated at it.
	if got := c.Find(0, 2); !samePath(got, path(0, 1, 2)) {
		t.Fatalf("Find(2) = %v", got)
	}
	if got := c.Find(0, 9); got != nil {
		t.Fatalf("Find(9) = %v, want nil", got)
	}
	if c.Find(0, 0) != nil {
		t.Fatal("Find(owner) should be nil")
	}
}

func TestCacheFindShortest(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2, 3, 4))
	c.Add(0, path(0, 5, 4))
	if got := c.Find(0, 4); !samePath(got, path(0, 5, 4)) {
		t.Fatalf("Find(4) = %v, want shortest 0-5-4", got)
	}
}

func TestCacheRejections(t *testing.T) {
	c := NewCache(0, 0, 0)
	tests := []struct {
		name string
		give []phy.NodeID
	}{
		{name: "wrong owner", give: path(1, 2, 3)},
		{name: "too short", give: path(0)},
		{name: "loop", give: path(0, 1, 2, 1)},
		{name: "empty", give: nil},
	}
	for _, tt := range tests {
		if c.Add(0, tt.give) {
			t.Errorf("%s: Add accepted %v", tt.name, tt.give)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after rejected adds", c.Len())
	}
}

func TestCacheDedupAndPrefix(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2, 3))
	if c.Add(0, path(0, 1, 2, 3)) {
		t.Fatal("exact duplicate accepted")
	}
	if c.Add(0, path(0, 1, 2)) {
		t.Fatal("prefix of cached route accepted")
	}
	if !c.Add(0, path(0, 1, 2, 3, 4)) {
		t.Fatal("extension of cached route rejected")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheInsertCallbackAndCopySemantics(t *testing.T) {
	c := NewCache(0, 0, 0)
	var got [][]phy.NodeID
	c.SetInsertCallback(func(p []phy.NodeID) { got = append(got, p) })
	src := path(0, 1, 2)
	c.Add(0, src)
	src[1] = 99 // caller mutates its slice; cache must hold a copy
	if len(got) != 1 || !samePath(got[0], path(0, 1, 2)) {
		t.Fatalf("callback got %v", got)
	}
	if found := c.Find(0, 2); !samePath(found, path(0, 1, 2)) {
		t.Fatalf("cache aliased caller slice: %v", found)
	}
	// Find results are also copies.
	found := c.Find(0, 2)
	found[1] = 42
	if again := c.Find(0, 2); !samePath(again, path(0, 1, 2)) {
		t.Fatal("Find returned aliased storage")
	}
}

func TestCacheRemoveLink(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2, 3)) // uses link 2-3
	c.Add(0, path(0, 4, 5))
	c.Add(0, path(0, 3, 2)) // uses link 3-2 (reverse direction)
	if n := c.RemoveLink(2, 3); n != 2 {
		t.Fatalf("RemoveLink affected %d, want 2", n)
	}
	// 0-1-2-3 truncated to 0-1-2; 0-3-2 truncated to 0-3; 0-4-5 untouched.
	if got := c.Find(0, 3); !samePath(got, path(0, 3)) {
		t.Fatalf("Find(3) = %v, want direct 0-3 remnant", got)
	}
	if got := c.Find(0, 2); !samePath(got, path(0, 1, 2)) {
		t.Fatalf("Find(2) = %v", got)
	}
	if got := c.Find(0, 5); got == nil {
		t.Fatal("unrelated route removed")
	}
}

func TestCacheRemoveLinkDropsShortRemnants(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2))
	c.RemoveLink(0, 1) // remnant would be just [0]
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestCacheCapacityFIFO(t *testing.T) {
	c := NewCache(0, 2, 0)
	c.Add(0, path(0, 1))
	c.Add(0, path(0, 2))
	c.Add(0, path(0, 3))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Find(0, 1) != nil {
		t.Fatal("oldest entry not evicted")
	}
	if c.Find(0, 3) == nil {
		t.Fatal("newest entry missing")
	}
	_, ev, _, _ := c.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCacheLifetime(t *testing.T) {
	c := NewCache(0, 0, 10*sim.Second)
	c.Add(0, path(0, 1, 2))
	if c.Find(9*sim.Second, 2) == nil {
		t.Fatal("entry expired early")
	}
	if c.Find(11*sim.Second, 2) != nil {
		t.Fatal("entry survived past lifetime")
	}
	if c.HasRouteTo(11*sim.Second, 2) {
		t.Fatal("HasRouteTo sees expired entry")
	}
}

func TestCacheHasRouteToDoesNotCountStats(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1))
	c.HasRouteTo(0, 1)
	c.HasRouteTo(0, 9)
	_, _, hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Fatalf("HasRouteTo counted hits=%d misses=%d", hits, misses)
	}
}

func TestCacheRoutesSnapshot(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1, 2))
	routes := c.Routes(0)
	if len(routes) != 1 {
		t.Fatalf("Routes len = %d", len(routes))
	}
	routes[0][1] = 77
	if got := c.Find(0, 2); !samePath(got, path(0, 1, 2)) {
		t.Fatal("Routes returned aliased storage")
	}
}

func TestCacheHitMissStats(t *testing.T) {
	c := NewCache(0, 0, 0)
	c.Add(0, path(0, 1))
	c.Find(0, 1)
	c.Find(0, 2)
	_, _, hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// TestCacheAddRejectionsDoNotAllocate pins route learning's steady state:
// most overheard packets teach routes the cache rejects or already holds,
// and those Adds must not allocate. The routes are 12 hops long, as in the
// 400-node cell; a short path's loop check could hide a heap allocation.
func TestCacheAddRejectionsDoNotAllocate(t *testing.T) {
	c := NewCache(0, 0, 0)
	held := path(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	c.Add(0, held)
	for _, tc := range []struct {
		name string
		p    []phy.NodeID
	}{
		{"looped", path(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1)},
		{"duplicate", held},
		{"prefix", held[:10]},
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			if c.Add(0, tc.p) {
				t.Fatalf("%s: Add(%v) accepted", tc.name, tc.p)
			}
		}); allocs != 0 {
			t.Errorf("%s: Add allocated %v times per call, want 0", tc.name, allocs)
		}
	}
}
