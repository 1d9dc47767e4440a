package mobility

import (
	"testing"

	"rcast/internal/geom"
	"rcast/internal/sim"
)

var benchPoint geom.Point

// BenchmarkWaypointPositionAt queries one node of the 400-node cell's
// mobility (3000×600 m field, up to 20 m/s, 30 s pauses) at instants that
// advance 7 ms per call and wrap every 600 s, so calls mix binary searches
// over a grown leg list with interpolation on moving and paused legs.
func BenchmarkWaypointPositionAt(b *testing.B) {
	w := NewWaypoint(WaypointConfig{
		Field:    geom.Rect{W: 3000, H: 600},
		MaxSpeed: 20,
		Pause:    30 * sim.Second,
		Start:    geom.Point{X: 1500, Y: 300},
	}, sim.Stream(1, "bench"))
	const horizon = 600 * sim.Second
	w.PositionAt(horizon)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPoint = w.PositionAt(sim.Time(i) * 7 * sim.Millisecond % horizon)
	}
}
