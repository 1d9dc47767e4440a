package scenario

import (
	"testing"

	"rcast/internal/sim"
)

// FuzzCanonical builds a Config from fuzzed fields and checks that Validate
// never panics, that CanonicalKey is deterministic, and that the fields the
// encoding declares irrelevant never split the key: a shadowing sigma on a
// non-shadowing channel, group size and radius on non-group mobility, the
// default spellings of channel, mobility, policy and group knobs, and a
// replication count below one.
func FuzzCanonical(f *testing.F) {
	f.Add(int(SchemeRcast), int(RoutingDSR), "", 40, 250.0, int64(60_000_000), int64(1), "", 0.0, "", 0, 0.0, 0.0, 1, 8.0, 6, 80.0)
	f.Add(int(SchemePSM), int(RoutingAODV), "battery", 12, 100.0, int64(1), int64(-3), "shadowing", 4.0, "group", 3, 20.0, -3.0, 2, 0.0, 0, 0.0)
	f.Add(int(SchemeAlwaysOn), int(RoutingDSR), "rcast", 2, 250.0, int64(5), int64(9), "fading", 6.0, "gauss-markov", -1, -5.0, 41.0, 0, 1.0, 4, 50.0)
	f.Add(int(SchemeODPM), 7, "nope", 0, -1.0, int64(-1), int64(0), "disk", -2.0, "waypoint", 4, 50.0, 0.0, -3, 2.0, 9, 1.0)
	f.Fuzz(func(t *testing.T, scheme, routing int, policy string, nodes int, rangeM float64,
		durationUS, seed int64, channel string, sigma float64, mobility string,
		groupSize int, groupRadius, txPower float64, reps int,
		sigma2 float64, groupSize2 int, groupRadius2 float64) {
		cfg := PaperDefaults()
		cfg.Scheme = Scheme(scheme)
		cfg.Routing = Routing(routing)
		cfg.PolicyName = policy
		cfg.Nodes = nodes
		cfg.RangeM = rangeM
		cfg.Duration = sim.Time(durationUS)
		cfg.Seed = seed
		cfg.Channel = channel
		cfg.ShadowSigmaDB = sigma
		cfg.Mobility = mobility
		cfg.GroupSize = groupSize
		cfg.GroupRadiusM = groupRadius
		cfg.TxPowerDBm = txPower

		_ = cfg.Validate()

		key, err := cfg.CanonicalKey(reps)
		again, errAgain := cfg.CanonicalKey(reps)
		if key != again || (err == nil) != (errAgain == nil) {
			t.Fatalf("CanonicalKey not deterministic: %q/%v then %q/%v", key, err, again, errAgain)
		}
		if err != nil {
			return
		}
		sameKey := func(what string, mut func(*Config), reps int) {
			t.Helper()
			alt := cfg
			mut(&alt)
			k, err := alt.CanonicalKey(reps)
			if err != nil {
				t.Fatalf("%s: keyable config became unkeyable: %v", what, err)
			}
			if k != key {
				t.Fatalf("%s split the canonical key", what)
			}
		}
		if reps < 1 {
			sameKey("reps < 1 vs 1", func(*Config) {}, 1)
		}
		if cfg.channelName() != "shadowing" {
			sameKey("sigma on a non-shadowing channel", func(c *Config) { c.ShadowSigmaDB = sigma2 }, reps)
		}
		if cfg.mobilityName() != "group" {
			sameKey("group knobs on non-group mobility", func(c *Config) {
				c.GroupSize, c.GroupRadiusM = groupSize2, groupRadius2
			}, reps)
		}
		if cfg.GroupSize <= 0 {
			sameKey("default group size spelled out", func(c *Config) { c.GroupSize = 4 }, reps)
		}
		if cfg.GroupRadiusM <= 0 {
			sameKey("default group radius spelled out", func(c *Config) { c.GroupRadiusM = 50 }, reps)
		}
		switch cfg.Channel {
		case "":
			sameKey(`channel "" vs "disk"`, func(c *Config) { c.Channel = "disk" }, reps)
		case "disk":
			sameKey(`channel "disk" vs ""`, func(c *Config) { c.Channel = "" }, reps)
		}
		switch cfg.Mobility {
		case "":
			sameKey(`mobility "" vs "waypoint"`, func(c *Config) { c.Mobility = "waypoint" }, reps)
		case "waypoint":
			sameKey(`mobility "waypoint" vs ""`, func(c *Config) { c.Mobility = "" }, reps)
		}
		if cfg.PolicyName != "" && cfg.PolicyName == cfg.Scheme.defaultPolicy().Name() {
			sameKey("default policy spelled out vs empty", func(c *Config) { c.PolicyName = "" }, reps)
		}
	})
}
