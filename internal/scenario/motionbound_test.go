package scenario

import (
	"math"
	"math/rand"
	"testing"

	"rcast/internal/fault"
	"rcast/internal/sim"
)

// TestMotionBoundHolds checks the property the PHY grid's drift
// classification trusts to the millimetre: between any two instants, no
// node moves farther than the motion bound the world declares times the
// elapsed time (plus 1 µm for floating-point rounding). Each case stresses
// one place the bound could be too tight: the waypoint speed floor, the
// Gauss–Markov edge reflection and clamp, a group member's two summed
// trajectories, and partition shifts whose ramps add ExtraMotionBound.
func TestMotionBoundHolds(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"waypoint", func(*Config) {}},
		{"waypoint-no-pause", func(c *Config) { c.Pause = 0 }},
		{"waypoint-speed-floor", func(c *Config) { c.MinSpeed, c.MaxSpeed = 0, 0.05 }},
		{"gauss-markov-reflect", func(c *Config) {
			c.Mobility = "gauss-markov"
			c.FieldW, c.FieldH = 60, 40
			c.MaxSpeed = 25
		}},
		{"gauss-markov-clamp", func(c *Config) {
			c.Mobility = "gauss-markov"
			c.FieldW, c.FieldH = 5, 3
			c.MaxSpeed = 20
		}},
		{"group", func(c *Config) {
			c.Mobility = "group"
			c.GroupSize = 4
			c.GroupRadiusM = 50
		}},
		{"group-edge-clamp", func(c *Config) {
			c.Mobility = "group"
			c.FieldW, c.FieldH = 120, 80
			c.GroupRadiusM = 100
		}},
		{"partition", func(c *Config) {
			c.Faults, _ = fault.Preset("partition")
		}},
		{"partition-overlapping-static", func(c *Config) {
			c.Pause = c.Duration
			c.Faults = &fault.Plan{Partitions: []fault.Partition{
				{StartFrac: 0.1, StopFrac: 0.6, Ramp: 3 * sim.Second},
				{StartFrac: 0.3, StopFrac: 0.9, Ramp: sim.Second},
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PaperDefaults()
			cfg.Nodes = 16
			cfg.FieldW, cfg.FieldH = 900, 300
			cfg.Connections = 2
			cfg.Duration = 200 * sim.Second
			cfg.Pause = 5 * sim.Second
			tc.edit(&cfg)
			w, err := newWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			bound := motionBound(cfg, w.inj)
			rng := rand.New(rand.NewSource(7))
			for _, r := range w.ch.Radios() {
				for k := 0; k < 3000; k++ {
					t0 := sim.Time(rng.Int63n(int64(cfg.Duration)))
					// Log-uniform gaps from 1 µs to 10 s probe both the
					// per-leg slope and moves spanning many legs.
					dt := sim.Time(math.Pow(10, 3+7*rng.Float64()))
					t1 := min(t0+dt, cfg.Duration)
					moved := r.Position(t1).DistanceTo(r.Position(t0))
					if limit := bound*(t1-t0).Seconds() + 1e-6; moved > limit {
						t.Fatalf("%v moved %.9f m in %v (from %v), bound %.3f m/s allows %.9f m",
							r.ID(), moved, t1-t0, t0, bound, limit)
					}
				}
			}
		})
	}
}
