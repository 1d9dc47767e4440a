package propagation

import (
	"math"
	"math/rand"
	"testing"

	"rcast/internal/phy"
	"rcast/internal/sim"
)

// The reference verdicts below are the models' original expressions, kept
// verbatim as a differential oracle for the fast paths: Shadowing re-derives
// its reach from the hash on every call (no memo), and Fading compares
// against R·g^(1/4) with math.Pow (no quartic test).

// refLinkHash spells the link hash out without linkKey, so the oracle shares
// no link packing with the fast paths.
func refLinkHash(seed int64, a, b phy.NodeID, instant uint64) uint64 {
	lo, hi := uint64(uint32(a)), uint64(uint32(b))
	if lo > hi {
		lo, hi = hi, lo
	}
	z := uint64(seed)
	z = mix64(z ^ lo<<32 ^ hi)
	z = mix64(z ^ instant)
	return z
}

func refShadowing(s *Shadowing, a, b phy.NodeID, dist float64) bool {
	if s.sigmaDB == 0 {
		return dist <= s.rangeM
	}
	g := gaussian(refLinkHash(s.seed, a, b, 0))
	limit := ShadowClampSigmas * s.sigmaDB
	x := math.Max(-limit, math.Min(limit, g*s.sigmaDB))
	return dist <= s.rangeM*dbToRangeFactor(x)
}

func refFadingVerdict(rangeM, u, dist float64) bool {
	g := -math.Log(1 - u)
	if g > FadingMaxGain {
		g = FadingMaxGain
	}
	return dist <= rangeM*math.Pow(g, 1/pathLossExponent)
}

func refFading(f *Fading, now sim.Time, a, b phy.NodeID, dist float64) bool {
	return refFadingVerdict(f.rangeM, uniform(refLinkHash(f.seed, a, b, uint64(now))), dist)
}

// ulpSteps returns x moved by 0, ±1, ±2 and ±4 ulps.
func ulpSteps(x float64) []float64 {
	out := []float64{x}
	for _, k := range []int{1, 2, 4} {
		up, down := x, x
		for i := 0; i < k; i++ {
			up = math.Nextafter(up, math.Inf(1))
			down = math.Nextafter(down, math.Inf(-1))
		}
		out = append(out, up, down)
	}
	return out
}

// TestDecodableMatchesReferenceRandom drives each model with 10^6 random
// (seed, a, b, instant, dist) queries and requires the fast verdict to
// equal the reference one. A third of the links use arbitrary 32-bit IDs,
// so the shadowing memo misses and evicts as well as hits.
func TestDecodableMatchesReferenceRandom(t *testing.T) {
	const seeds, perSeed = 1000, 1000
	rng := rand.New(rand.NewSource(1))
	node := func() phy.NodeID {
		if rng.Intn(3) == 0 {
			return phy.NodeID(rng.Uint32())
		}
		return phy.NodeID(rng.Intn(40))
	}
	for _, sigma := range []float64{4, 8} {
		for i := 0; i < seeds; i++ {
			s := NewShadowing(250, sigma, rng.Int63())
			for j := 0; j < perSeed; j++ {
				a, b := node(), node()
				dist := rng.Float64() * 1.1 * s.MaxRange()
				if got, want := s.Decodable(sim.Time(rng.Int63()), a, b, dist), refShadowing(s, a, b, dist); got != want {
					t.Fatalf("shadowing σ=%v seed=%d (%d,%d) dist=%v: fast %v, reference %v", sigma, s.seed, a, b, dist, got, want)
				}
			}
		}
	}
	for i := 0; i < seeds; i++ {
		f := NewFading(250, rng.Int63())
		for j := 0; j < perSeed; j++ {
			a, b := node(), node()
			now := sim.Time(rng.Int63())
			dist := rng.Float64() * 1.1 * f.MaxRange()
			if got, want := f.Decodable(now, a, b, dist), refFading(f, now, a, b, dist); got != want {
				t.Fatalf("fading seed=%d (%d,%d) now=%d dist=%v: fast %v, reference %v", f.seed, a, b, now, dist, got, want)
			}
		}
	}
}

// TestFadingBoundaryMatchesReference queries the fading verdict at exactly
// the reference reach R·g^(1/4) and a few ulps either side, where the
// quartic test must defer to the exact expression, plus the degenerate
// draws and distances: u = 0 (g = 0), g capped at 9, dist = 0, negative,
// infinite and NaN distances, and radii outside the quartic test's range.
func TestFadingBoundaryMatchesReference(t *testing.T) {
	us := []float64{
		0, 0x1p-53, 1e-12, 1e-6, 0.1, 0.25, 0.5,
		1 - math.Exp(-1), // g ≈ 1: reach ≈ R
		0.75, 0.9,
		1 - math.Exp(-FadingMaxGain), // g right at the cap
		0.99999,                      // g > 9, capped
		1 - 0x1p-53,                  // largest u: g ≈ 36.7, capped
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		us = append(us, uniform(rng.Uint64()))
	}
	for _, rangeM := range []float64{250, 1, 1e-3, 7.5e6, 1e-300, 1e300, 0, -250, 1e-310, 1e305, math.Inf(1)} {
		f := NewFading(rangeM, 0)
		for _, u := range us {
			g := math.Min(-math.Log(1-u), FadingMaxGain)
			reach := rangeM * math.Pow(g, 1/pathLossExponent)
			dists := append(ulpSteps(reach), 0, math.Copysign(0, -1), -1, math.Inf(1), math.NaN(),
				rangeM*math.Pow(g*(1-fadingBand), 1/pathLossExponent),
				rangeM*math.Pow(g*(1+fadingBand), 1/pathLossExponent))
			for _, dist := range dists {
				if got, want := f.verdict(u, dist), refFadingVerdict(rangeM, u, dist); got != want {
					t.Errorf("R=%v u=%v (g=%v) dist=%v: fast %v, reference %v", rangeM, u, g, dist, got, want)
				}
			}
		}
	}
}

// TestFadingCappedDrawsMatchReference finds real link-instants whose draw
// hits the gain cap and checks Decodable itself around their reach.
func TestFadingCappedDrawsMatchReference(t *testing.T) {
	f := NewFading(250, 31)
	capped := 0
	for now := sim.Time(0); now < 200_000 && capped < 5; now++ {
		if -math.Log(1-uniform(linkHash(f.seed, 3, 9, uint64(now)))) <= FadingMaxGain {
			continue
		}
		capped++
		for _, dist := range ulpSteps(f.MaxRange()) {
			if got, want := f.Decodable(now, 9, 3, dist), refFading(f, now, 9, 3, dist); got != want {
				t.Errorf("now=%d dist=%v: fast %v, reference %v", now, dist, got, want)
			}
		}
	}
	if capped == 0 {
		t.Fatal("no capped draw found")
	}
}

// TestShadowingBoundaryMatchesReference queries shadowing at each link's
// reference reach R·10^(X/40) ± a few ulps, over links whose gain is
// clamped at ±4σ as well as ordinary ones, for σ = 0 too.
func TestShadowingBoundaryMatchesReference(t *testing.T) {
	for _, sigma := range []float64{0, 1, 6, 30} {
		s := NewShadowing(250, sigma, 77)
		clamped := 0
		for a := phy.NodeID(0); a < 700; a++ {
			for b := a + 1; b < 700; b++ {
				g := gaussian(linkHash(s.seed, a, b, 0))
				isClamped := math.Abs(g) > ShadowClampSigmas
				if !isClamped && (a+b)%97 != 0 {
					continue // every clamped link, and a sample of the rest
				}
				if isClamped {
					clamped++
				}
				reach := s.rangeM * dbToRangeFactor(s.GainDB(a, b))
				for _, dist := range append(ulpSteps(reach), 0, s.MaxRange()) {
					if got, want := s.Decodable(0, a, b, dist), refShadowing(s, a, b, dist); got != want {
						t.Fatalf("σ=%v (%d,%d) dist=%v: fast %v, reference %v", sigma, a, b, dist, got, want)
					}
					if got, want := s.Decodable(0, b, a, dist), refShadowing(s, b, a, dist); got != want {
						t.Fatalf("σ=%v (%d,%d) dist=%v: fast %v, reference %v", sigma, b, a, dist, got, want)
					}
				}
			}
		}
		if clamped == 0 {
			t.Fatalf("σ=%v: no clamped link found", sigma)
		}
	}
}

// TestShadowingMemoCollision queries two links that share a memo slot
// alternately, so every query evicts the other link's reach, at distances
// between the two reaches where a stale entry would flip the verdict.
func TestShadowingMemoCollision(t *testing.T) {
	s := NewShadowing(250, 8, 5)
	a1, b1 := phy.NodeID(0), phy.NodeID(1)
	slot := reachSlot(linkKey(a1, b1))
	var a2, b2 phy.NodeID
	found := false
	for a := phy.NodeID(0); a < 400 && !found; a++ {
		for b := a + 1; b < 400; b++ {
			if reachSlot(linkKey(a, b)) == slot && (a != a1 || b != b1) &&
				s.GainDB(a, b) != s.GainDB(a1, b1) {
				a2, b2, found = a, b, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no colliding link found")
	}
	r1 := s.rangeM * dbToRangeFactor(s.GainDB(a1, b1))
	r2 := s.rangeM * dbToRangeFactor(s.GainDB(a2, b2))
	mid := (r1 + r2) / 2
	for i := 0; i < 8; i++ {
		for _, q := range [][2]phy.NodeID{{a1, b1}, {b2, a2}} {
			for _, dist := range []float64{mid, r1, r2} {
				if got, want := s.Decodable(0, q[0], q[1], dist), refShadowing(s, q[0], q[1], dist); got != want {
					t.Fatalf("round %d link %v dist=%v: fast %v, reference %v", i, q, dist, got, want)
				}
			}
		}
	}
	if s.Decodable(0, a1, b1, mid) == s.Decodable(0, a2, b2, mid) {
		t.Fatal("colliding links agree at the midpoint; the test cannot see a stale entry")
	}
}

// TestShadowingMemoBounded pins the memo's footprint: one fixed table per
// model, allocated once, whatever the NodeIDs queried.
func TestShadowingMemoBounded(t *testing.T) {
	s := NewShadowing(250, 6, 9)
	s.Decodable(0, 1, 2, 100)
	memo := s.memo
	rng := rand.New(rand.NewSource(3))
	allocs := testing.AllocsPerRun(10_000, func() {
		s.Decodable(0, phy.NodeID(rng.Uint32()), phy.NodeID(rng.Uint32()), 250)
	})
	if allocs != 0 {
		t.Fatalf("Decodable allocated %v times per call after the first", allocs)
	}
	if s.memo != memo {
		t.Fatal("memo reallocated")
	}
}

// FuzzDecodable checks, for arbitrary 32-bit NodeIDs, σ, radius, instant
// and distance, that both random models' fast verdicts equal the
// reference, are symmetric in the link, and are false beyond MaxRange.
func FuzzDecodable(f *testing.F) {
	f.Add(int64(1), uint32(0), uint32(1), 6.0, 250.0, int64(0), 250.0)
	f.Add(int64(-7), uint32(1<<31), uint32(1<<32-1), 4.0, 250.0, int64(1_000_000), 300.0)
	f.Add(int64(42), uint32(5), uint32(5), 0.0, 1.0, int64(-1), 0.0)
	f.Add(int64(3), uint32(2), uint32(9), 1e9, 250.0, int64(123), 432.0)
	f.Fuzz(func(t *testing.T, seed int64, a32, b32 uint32, sigma, rangeM float64, now int64, dist float64) {
		a, b := phy.NodeID(a32), phy.NodeID(b32)
		at := sim.Time(now)
		s := NewShadowing(rangeM, sigma, seed)
		fd := NewFading(rangeM, seed)
		check := func(m Model, fast, rev, ref bool) {
			if fast != ref {
				t.Fatalf("%s: fast %v, reference %v", m.Name(), fast, ref)
			}
			if fast != rev {
				t.Fatalf("%s: Decodable(a,b)=%v but Decodable(b,a)=%v", m.Name(), fast, rev)
			}
			if fast && rangeM > 0 && dist > m.MaxRange() {
				t.Fatalf("%s: decodable at %v beyond MaxRange %v", m.Name(), dist, m.MaxRange())
			}
		}
		check(s, s.Decodable(at, a, b, dist), s.Decodable(at, b, a, dist), refShadowing(s, a, b, dist))
		check(fd, fd.Decodable(at, a, b, dist), fd.Decodable(at, b, a, dist), refFading(fd, at, a, b, dist))
	})
}

// BenchmarkDecodable times one verdict of each random model over 40 nodes,
// at distances up to MaxRange and instants a millisecond apart.
func BenchmarkDecodable(b *testing.B) {
	type query struct {
		a, b phy.NodeID
		frac float64
	}
	rng := rand.New(rand.NewSource(4))
	qs := make([]query, 4096)
	for i := range qs {
		qs[i] = query{phy.NodeID(rng.Intn(40)), phy.NodeID(rng.Intn(40)), rng.Float64()}
	}
	for _, m := range []Model{NewShadowing(250, 4, 1), NewFading(250, 1)} {
		b.Run(m.Name(), func(b *testing.B) {
			b.ReportAllocs()
			mr := m.MaxRange()
			n := 0
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if m.Decodable(sim.Time(i)*sim.Millisecond, q.a, q.b, q.frac*mr) {
					n++
				}
			}
			sinkCount = n
		})
	}
}

var sinkCount int
