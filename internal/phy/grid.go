package phy

import (
	"math"
	bits64 "math/bits"

	"rcast/internal/geom"
	"rcast/internal/sim"
)

// grid is a uniform spatial index over radio positions. Cell edge length
// equals the decode range R, so the radios decodable from a point always
// live in a bounded neighbourhood of cells around it instead of requiring a
// scan over every radio on the channel.
//
// Positions move continuously under mobility, so bins are allowed to go
// stale: a radio's binned position may drift up to slack metres from its
// true position before the grid re-bins. With a declared motion bound v
// (m/s) the drift t simulated seconds after a rebin is at most v*t, so one
// O(N) re-bin buys slack/v seconds of O(area) queries.
//
// Each rebin keeps every radio's binned position, and queries classify a
// candidate by its binned distance bd from the query point against the
// drift bound δ = v*|now-binTime| + driftEps: bd > reach+δ is certainly out
// of reach and bd+δ <= reach certainly in, both without evaluating the
// radio's mobility model; only the band between needs the exact distance.
// Answers stay identical to the exhaustive scan exactly as long as the
// bound declared through Channel.SetMotionBound holds, to within driftEps.
//
// Cells are stored in CSR form over the bounding box of occupied cells:
// cellStart[lin] .. cellStart[lin+1] delimits cell lin's radio indices in
// cellIdx, with lin = (cx-minX)*h + (cy-minY). A column-major linear index
// makes the cy-range of one cx column a single contiguous run, so a query
// touches at most three contiguous slices and performs no map lookups.
// gridScanThreshold is the population below which queries skip the CSR
// index and test every binned position instead: one squared distance per
// radio beats the scatter/gather constant factor until the candidate set is
// a small fraction of the population.
const gridScanThreshold = 512

// driftEps pads the drift bound for floating-point rounding in mobility
// models and distances, which stays below a micrometre at field scale.
const driftEps = 1e-3

type grid struct {
	cell  float64 // cell edge length (= decode range), metres
	slack float64 // tolerated bin drift before re-binning, metres

	n          int          // registered radios at last rebin
	pos        []geom.Point // binned positions, registration order
	minX, minY int32        // cell coords of the bounding box origin
	w, h       int32        // bounding box extent, in cells
	cellStart  []int32      // CSR cell offsets into cellIdx, len w*h+1
	cellIdx    []int32      // radio indices, ascending within each cell
	bits       []uint64     // scratch: candidate bitmap, one bit per radio
	binTime    sim.Time
	valid      bool
}

type gridKey struct{ cx, cy int32 }

func (g *grid) keyFor(p geom.Point) gridKey {
	return gridKey{
		cx: int32(math.Floor(p.X / g.cell)),
		cy: int32(math.Floor(p.Y / g.cell)),
	}
}

// moved bounds how far any radio can have moved between binTime and now,
// given the channel's motion bound.
func (g *grid) moved(now sim.Time, motionBound float64) float64 {
	dt := now - g.binTime
	if dt < 0 {
		dt = -dt
	}
	return dt.Seconds() * motionBound
}

// stale reports whether bins built at binTime may have drifted more than
// slack by instant now, given the channel's motion bound.
func (g *grid) stale(now sim.Time, motionBound float64) bool {
	if !g.valid {
		return true
	}
	if motionBound <= 0 || now == g.binTime {
		return false
	}
	return g.moved(now, motionBound) > g.slack
}

// rebin rebuilds every bin from radio positions at instant now. Radios are
// visited in registration order, so each cell's index run is ascending.
func (g *grid) rebin(radios []*Radio, now sim.Time) {
	n := len(radios)
	g.n = n
	g.binTime = now
	g.valid = true
	if cap(g.pos) < n {
		g.pos = make([]geom.Point, n)
	}
	g.pos = g.pos[:n]
	for i, r := range radios {
		g.pos[i] = r.Position(now)
	}
	if n <= gridScanThreshold {
		// Small population: queries scan the binned positions, no CSR needed.
		return
	}
	minX, minY := int32(math.MaxInt32), int32(math.MaxInt32)
	maxX, maxY := int32(math.MinInt32), int32(math.MinInt32)
	for _, p := range g.pos {
		k := g.keyFor(p)
		minX, maxX = min(minX, k.cx), max(maxX, k.cx)
		minY, maxY = min(minY, k.cy), max(maxY, k.cy)
	}
	g.minX, g.minY = minX, minY
	g.w, g.h = maxX-minX+1, maxY-minY+1
	h := g.h
	cells := int(g.w) * int(h)
	if cap(g.cellStart) < cells+1 {
		g.cellStart = make([]int32, cells+1)
	} else {
		g.cellStart = g.cellStart[:cells+1]
		clear(g.cellStart)
	}
	start := g.cellStart
	for _, p := range g.pos {
		k := g.keyFor(p)
		start[(k.cx-minX)*h+(k.cy-minY)+1]++
	}
	for c := 1; c <= cells; c++ {
		start[c] += start[c-1]
	}
	if cap(g.cellIdx) < n {
		g.cellIdx = make([]int32, n)
	}
	g.cellIdx = g.cellIdx[:n]
	// Counting-sort fill: place each radio at its cell's cursor. This walks
	// the cursors forward, so afterwards start[c] holds cell c's end offset;
	// the backward pass shifts the array so start[c] is cell c's begin again.
	for i, p := range g.pos {
		k := g.keyFor(p)
		lin := (k.cx-minX)*h + (k.cy - minY)
		g.cellIdx[start[lin]] = int32(i)
		start[lin]++
	}
	for c := cells; c > 0; c-- {
		start[c] = start[c-1]
	}
	start[0] = 0
	if words := (n + 63) / 64; len(g.bits) < words {
		g.bits = make([]uint64, words)
	}
}

// candidates appends to buf, in ascending radio order, every radio that may
// lie within reach of p at instant now, and returns buf. Radios whose binned
// distance puts them beyond reach+drift are left out. With sure set, a radio
// whose binned distance puts it within reach-drift is appended as ^i
// (negative), telling the caller it is within reach without an exact check;
// every other candidate is appended as i and needs one.
//
// On the CSR path the touched cells are unioned through a bitmap with one
// bit per registered radio: scatter every cell run's indices into the
// bitmap, then read the set bits back in index order. That yields the
// ascending order a sort would (indices are unique across cells) at the
// cost of one pass over candidates plus one pass over the — at realistic
// scales, one or two — bitmap words, with no allocation and no comparison
// sort.
func (g *grid) candidates(p geom.Point, reach, drift float64, sure bool, buf []int32) []int32 {
	buf = buf[:0]
	if g.n == 0 {
		return buf
	}
	outer := reach + drift
	outer2, inner2 := outer*outer, -1.0
	if sure && reach > drift {
		inner2 = (reach - drift) * (reach - drift)
	}
	if g.n <= gridScanThreshold {
		for i, q := range g.pos[:g.n] {
			buf = classify(buf, int32(i), p, q, outer2, inner2)
		}
		return buf
	}
	lo := g.keyFor(geom.Point{X: p.X - outer, Y: p.Y - outer})
	hi := g.keyFor(geom.Point{X: p.X + outer, Y: p.Y + outer})
	cxLo, cxHi := max(lo.cx, g.minX), min(hi.cx, g.minX+g.w-1)
	cyLo, cyHi := max(lo.cy, g.minY), min(hi.cy, g.minY+g.h-1)
	if cxLo > cxHi || cyLo > cyHi {
		return buf
	}
	bits := g.bits
	h := g.h
	for cx := cxLo; cx <= cxHi; cx++ {
		base := (cx - g.minX) * h
		s := g.cellStart[base+(cyLo-g.minY)]
		e := g.cellStart[base+(cyHi-g.minY)+1]
		for _, i := range g.cellIdx[s:e] {
			bits[i>>6] |= 1 << (uint32(i) & 63)
		}
	}
	for w, word := range bits {
		base := int32(w << 6)
		for word != 0 {
			i := base + int32(bits64.TrailingZeros64(word))
			buf = classify(buf, i, p, g.pos[i], outer2, inner2)
			word &= word - 1
		}
		bits[w] = 0
	}
	return buf
}

// classify appends radio i, binned at q, to buf as candidates describes,
// comparing squared distances against the squared outer and inner radii.
func classify(buf []int32, i int32, p, q geom.Point, outer2, inner2 float64) []int32 {
	dx, dy := p.X-q.X, p.Y-q.Y
	switch d2 := dx*dx + dy*dy; {
	case d2 > outer2:
		return buf
	case d2 <= inner2:
		return append(buf, ^i)
	}
	return append(buf, i)
}
