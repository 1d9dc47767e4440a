package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rcast/internal/geom"
	"rcast/internal/mobility"
	"rcast/internal/sim"
)

// exhaustiveInRange is the reference for every channel query: the radios a
// transmission from center reaches at now, found by checking every radio.
func exhaustiveInRange(ch *Channel, center *Radio, now sim.Time) []NodeID {
	p := center.Position(now)
	s := center.txScale
	var out []NodeID
	for _, o := range ch.radios {
		if o == center {
			continue
		}
		d := p.DistanceTo(o.Position(now))
		if ch.prop == nil && d <= ch.rangeM*s ||
			ch.prop != nil && d <= ch.maxRange*s && ch.prop.Decodable(now, center.id, o.id, d/s) {
			out = append(out, o.id)
		}
	}
	return out
}

func sameIDs(t *testing.T, got, want []NodeID, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", context, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", context, got, want)
		}
	}
}

// TestGridMatchesBruteForceStatic places radios uniformly at random and
// checks that the grid-backed Neighbors/CountNeighbors/InRange agree with
// the exhaustive scan for every node, including positions near cell
// boundaries and outside the nominal field.
func TestGridMatchesBruteForceStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		sched := sim.NewScheduler()
		rangeM := 50 + 300*rng.Float64()
		ch := NewChannel(sched, rangeM)
		ch.SetMotionBound(0) // static: enables the grid, never rebins
		n := 2 + rng.Intn(120)
		for i := 0; i < n; i++ {
			// Deliberately spread beyond one grid cell and into negative
			// coordinates to exercise the floor-based binning.
			p := geom.Point{
				X: -200 + 2000*rng.Float64(),
				Y: -200 + 800*rng.Float64(),
			}
			ch.AddRadio(NodeID(i), mobility.Static{P: p})
		}
		for _, r := range ch.radios {
			want := exhaustiveInRange(ch, r, 0)
			sameIDs(t, ch.Neighbors(r, 0), want, "Neighbors")
			if got := ch.CountNeighbors(r, 0); got != len(want) {
				t.Fatalf("CountNeighbors(%v) = %d, want %d", r.id, got, len(want))
			}
		}
		a, b := ch.radios[0], ch.radios[n-1]
		inRange := a.Position(0).DistanceTo(b.Position(0)) <= rangeM
		if ch.InRange(a, b, 0) != inRange {
			t.Fatalf("InRange(%v, %v) = %v, want %v", a.id, b.id, !inRange, inRange)
		}
	}
}

// TestGridMatchesBruteForceMobile drives waypoint-mobile radios across
// many rebin epochs and checks grid queries against the exhaustive scan at
// every probe instant.
func TestGridMatchesBruteForceMobile(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, 250)
	const maxSpeed = 20.0
	ch.SetMotionBound(maxSpeed)
	field := geom.Rect{W: 1500, H: 300}
	for i := 0; i < 60; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: maxSpeed,
			Start:    geom.Point{X: field.W * float64(i) / 60, Y: field.H * float64(i%7) / 7},
		}, sim.Stream(int64(i), "grid-test"))
		ch.AddRadio(NodeID(i), mob)
	}
	// Probe at irregular instants spanning several staleness windows (the
	// slack of 250/4 m at 20 m/s is exceeded after ~3 s).
	for _, sec := range []float64{0, 0.5, 2.9, 3.4, 10, 30, 31, 95} {
		now := sim.FromSeconds(sec)
		sched.RunUntil(now)
		for _, r := range ch.radios {
			want := exhaustiveInRange(ch, r, now)
			sameIDs(t, ch.Neighbors(r, now), want, "Neighbors @"+now.String())
			if got := ch.CountNeighbors(r, now); got != len(want) {
				t.Fatalf("CountNeighbors(%v) @%v = %d, want %d", r.id, now, got, len(want))
			}
		}
	}
}

// TestGridCSRMatchesBruteForce pushes the population past gridScanThreshold
// so queries take the CSR-index path (the quick experiment profiles never
// do), and checks every query agrees with the exhaustive scan — including
// the registration-order visiting contract VisitNeighbors promises.
func TestGridCSRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sched := sim.NewScheduler()
	ch := NewChannel(sched, 180)
	ch.SetMotionBound(0)
	n := gridScanThreshold + 60
	for i := 0; i < n; i++ {
		p := geom.Point{
			X: -300 + 3000*rng.Float64(),
			Y: -300 + 1500*rng.Float64(),
		}
		ch.AddRadio(NodeID(i), mobility.Static{P: p})
	}
	for step := 0; step < n; step += 23 {
		r := ch.radios[step]
		want := exhaustiveInRange(ch, r, 0)
		sameIDs(t, ch.Neighbors(r, 0), want, "Neighbors (CSR)")
		var visited []NodeID
		ch.VisitNeighbors(r, 0, func(id NodeID) { visited = append(visited, id) })
		sameIDs(t, visited, want, "VisitNeighbors (CSR)")
		if got := ch.CountNeighbors(r, 0); got != len(want) {
			t.Fatalf("CountNeighbors(%v) = %d, want %d", r.id, got, len(want))
		}
	}
}

// TestVisitNeighborsMatchesNeighbors checks the allocation-free visitor
// against the slice-returning query across rebin epochs of a mobile
// scenario (the small-population scan path).
func TestVisitNeighborsMatchesNeighbors(t *testing.T) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, 250)
	const maxSpeed = 20.0
	ch.SetMotionBound(maxSpeed)
	field := geom.Rect{W: 1500, H: 300}
	for i := 0; i < 50; i++ {
		mob := mobility.NewWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: maxSpeed,
			Start:    geom.Point{X: field.W * float64(i) / 50, Y: field.H * float64(i%5) / 5},
		}, sim.Stream(int64(i), "visit-test"))
		ch.AddRadio(NodeID(i), mob)
	}
	for _, sec := range []float64{0, 1.5, 4, 20, 60} {
		now := sim.FromSeconds(sec)
		sched.RunUntil(now)
		for _, r := range ch.radios {
			want := ch.Neighbors(r, now)
			var got []NodeID
			ch.VisitNeighbors(r, now, func(id NodeID) { got = append(got, id) })
			sameIDs(t, got, want, "VisitNeighbors @"+now.String())
		}
	}
}

// TestGridTransmitMatchesLinear runs the same broadcast on a grid-enabled
// channel and on a linear-scan channel and checks the delivery sets match.
func TestGridTransmitMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	points := make([]geom.Point, 80)
	for i := range points {
		points[i] = geom.Point{X: 1500 * rng.Float64(), Y: 300 * rng.Float64()}
	}
	deliveries := func(useGrid bool) []int {
		sched := sim.NewScheduler()
		ch := NewChannel(sched, 250)
		if useGrid {
			ch.SetMotionBound(0)
		}
		caps := make([]*capture, len(points))
		radios := make([]*Radio, len(points))
		for i, p := range points {
			radios[i] = ch.AddRadio(NodeID(i), mobility.Static{P: p})
			caps[i] = &capture{}
			radios[i].SetReceiver(caps[i])
		}
		ch.Transmit(radios[0], Frame{From: 0, To: Broadcast, Bytes: 512}, 2)
		sched.Run()
		var got []int
		for i, c := range caps {
			if len(c.frames) > 0 {
				got = append(got, i)
			}
		}
		return got
	}
	grid, linear := deliveries(true), deliveries(false)
	if len(grid) != len(linear) {
		t.Fatalf("grid delivered to %v, linear to %v", grid, linear)
	}
	for i := range grid {
		if grid[i] != linear[i] {
			t.Fatalf("grid delivered to %v, linear to %v", grid, linear)
		}
	}
}

// radial moves at exactly speed v along the ray from c through dir (a unit
// vector), crossing distance dist from c at instant at: inward when in is
// set, outward otherwise. Moving at the declared bound makes a radio's bin
// drift exactly as far as the grid's drift bound allows.
type radial struct {
	c, dir geom.Point
	dist   float64
	v      float64
	at     sim.Time
	in     bool
}

func (m radial) PositionAt(t sim.Time) geom.Point {
	ahead := m.v * (m.at - t).Seconds()
	if !m.in {
		ahead = -ahead
	}
	return m.c.Add(m.dir.Scale(m.dist + ahead))
}

// hashProp is a pure, symmetric propagation model: every link within 70% of
// MaxRange decodes, and beyond that a hash of the link and instant decides.
type hashProp struct{ max float64 }

func (h hashProp) MaxRange() float64 { return h.max }

func (h hashProp) Decodable(now sim.Time, a, b NodeID, dist float64) bool {
	if dist > h.max {
		return false
	}
	if a > b {
		a, b = b, a
	}
	return dist <= 0.7*h.max || (uint64(a)*31+uint64(b)*17+uint64(now/sim.Microsecond))%3 != 0
}

// TestGridBoundaryMatchesExhaustive places radios at reach ± {0, 1e-9,
// 1e-4, 1e-2} m of a transmitter at the probe instant, each moving radially
// at exactly the declared motion bound, so its binned position is off by the
// full drift bound. The probe comes just before the grid re-bins, where the
// drift is about the slack. Transmit's receiver set, Neighbors,
// VisitNeighbors and CountNeighbors must equal the exhaustive scan for
// populations on both sides of gridScanThreshold, transmit range scales
// other than 1, and with a propagation model installed.
func TestGridBoundaryMatchesExhaustive(t *testing.T) {
	const (
		rangeM = 250.0
		v      = 20.0
	)
	offsets := []float64{0, 1e-9, -1e-9, 1e-4, -1e-4, 1e-2, -1e-2}
	for _, n := range []int{80, gridScanThreshold + 40} {
		for _, scale := range []float64{1, 0.55, 1.6} {
			for _, withProp := range []bool{false, true} {
				name := fmt.Sprintf("n=%d/scale=%v/prop=%v", n, scale, withProp)
				t.Run(name, func(t *testing.T) {
					boundaryCase(t, n, scale, withProp, rangeM, v, offsets)
				})
			}
		}
	}
}

func boundaryCase(t *testing.T, n int, scale float64, withProp bool, rangeM, v float64, offsets []float64) {
	sched := sim.NewScheduler()
	ch := NewChannel(sched, rangeM)
	ch.SetMotionBound(v)
	nominal := rangeM
	if withProp {
		nominal = 1.2 * rangeM
		ch.SetPropagation(hashProp{max: nominal})
	}
	reach := nominal * scale
	// The first query rebins at t0; the probe at tp sits 1 µs before the
	// drift bound exceeds the slack and forces the next rebin.
	t0 := sim.Second
	tp := t0 + sim.FromSeconds(ch.grid.slack/v) - sim.Microsecond

	c := geom.Point{X: 1500, Y: 400}
	center := ch.AddRadio(0, mobility.Static{P: c})
	center.SetTxRangeScale(scale)
	k := 0
	for _, off := range offsets {
		for _, in := range []bool{true, false} {
			angle := 2 * math.Pi * float64(k) / float64(2*len(offsets))
			k++
			ch.AddRadio(NodeID(len(ch.radios)), radial{
				c:    c,
				dir:  geom.Point{X: math.Cos(angle), Y: math.Sin(angle)},
				dist: reach + off,
				v:    v,
				at:   tp,
				in:   in,
			})
		}
	}
	field := geom.Rect{W: 3000, H: 800}
	for len(ch.radios) < n {
		i := len(ch.radios)
		ch.AddRadio(NodeID(i), mobility.NewWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: 1,
			MaxSpeed: v,
			Start:    geom.Point{X: field.W * float64(i%37) / 37, Y: field.H * float64(i%11) / 11},
		}, sim.Stream(int64(i), "boundary-test")))
	}
	caps := make([]*capture, n)
	for i, r := range ch.radios {
		caps[i] = &capture{}
		r.SetReceiver(caps[i])
	}

	sched.RunUntil(t0)
	ch.CountNeighbors(center, t0)
	if ch.grid.binTime != t0 {
		t.Fatalf("grid binned at %v, want %v", ch.grid.binTime, t0)
	}
	sched.RunUntil(tp)
	probes := []*Radio{center, ch.radios[n/2], ch.radios[n-1]}
	for _, r := range probes {
		want := exhaustiveInRange(ch, r, tp)
		sameIDs(t, ch.Neighbors(r, tp), want, "Neighbors")
		var visited []NodeID
		ch.VisitNeighbors(r, tp, func(id NodeID) { visited = append(visited, id) })
		sameIDs(t, visited, want, "VisitNeighbors")
		if got := ch.CountNeighbors(r, tp); got != len(want) {
			t.Fatalf("CountNeighbors(%v) = %d, want %d", r.id, got, len(want))
		}
	}
	if ch.grid.binTime != t0 {
		t.Fatalf("probe at %v rebinned the grid; it must sit just before the rebin", tp)
	}
	if drift := ch.grid.moved(tp, v); drift < 0.99*ch.grid.slack || drift > ch.grid.slack {
		t.Fatalf("drift at the probe = %.3f m, want just under the slack %.3f m", drift, ch.grid.slack)
	}
	if !withProp {
		// The boundary radios must exercise all three verdicts: decided
		// out and in on binned distance alone, and exact-checked.
		drift := ch.grid.moved(tp, v) + driftEps
		var sure, exact int
		for _, i := range ch.grid.candidates(c, reach, drift, true, nil) {
			if i < 0 {
				sure++
			} else {
				exact++
			}
		}
		if sure == 0 || exact == 0 || sure+exact >= n {
			t.Fatalf("classification degenerate: %d certain, %d exact-checked of %d radios", sure, exact, n)
		}
	}

	want := exhaustiveInRange(ch, center, tp)
	ch.Transmit(center, Frame{From: center.id, To: Broadcast, Bytes: 64}, 2)
	sched.Run()
	var got []NodeID
	for i, cp := range caps {
		if len(cp.frames) > 0 {
			got = append(got, ch.radios[i].id)
		}
	}
	sameIDs(t, got, want, "Transmit receivers")
}
