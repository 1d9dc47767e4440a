package scenario

import (
	"fmt"
	"math"

	"rcast/internal/core"
	"rcast/internal/fault"
	"rcast/internal/sim"
)

// Grid is a cross-product of sweep axes over a base Config: the parameter
// study shape the paper's evaluation uses (schemes × packet rates × pause
// times × fault plans × gossip fanouts). A Grid expands into GridPoints in
// a fixed deterministic order — scheme outermost, then rate, pause, fault
// preset, gossip fanout — so everything derived from the expansion (cell
// indices, sweep result documents, dispatch order) is stable across
// processes and machines.
//
// Every axis except Schemes is optional: an empty axis keeps the base
// Config's value for that parameter in every cell.
type Grid struct {
	// Schemes is the power-management scheme axis; at least one entry is
	// required.
	Schemes []Scheme
	// Rates is the per-connection packet-rate axis (packets/s). Entries
	// must be positive.
	Rates []float64
	// PausesSec is the random-waypoint pause-time axis in seconds. A
	// negative entry means "static": pause is pinned to the simulation
	// duration, exactly as the paper's static scenarios do.
	PausesSec []float64
	// FaultPresets is the fault-plan axis by preset name (see
	// fault.Preset); "" means no fault layer.
	FaultPresets []string
	// GossipFanouts is the broadcast-gossip fanout axis; 0 disables the
	// gossip extension for that cell.
	GossipFanouts []float64
	// Channels is the propagation-model axis by name (see ChannelNames);
	// "" means the base Config's channel.
	Channels []string
	// Mobilities is the mobility-model axis by name (see MobilityNames);
	// "" means the base Config's mobility.
	Mobilities []string
	// Policies is the overhearing-policy axis by registered name (see
	// core.PolicyNames); "" means the base Config's policy (usually the
	// scheme default).
	Policies []string
	// TxPowersDBm is the transmit-power axis in dB relative to the nominal
	// radio power; 0 is the paper's fixed-range default.
	TxPowersDBm []float64
}

// GridPoint is one cell of an expanded Grid. Optional axes that were
// empty are flagged absent so Apply can keep the base Config's value.
type GridPoint struct {
	Scheme Scheme

	HasRate bool
	Rate    float64

	HasPause bool
	PauseSec float64 // negative = static (pause pinned to duration)

	HasFault    bool
	FaultPreset string

	HasGossip    bool
	GossipFanout float64

	HasChannel bool
	Channel    string

	HasMobility bool
	Mobility    string

	HasPolicy bool
	Policy    string

	HasTxPower bool
	TxPowerDBm float64
}

// Static reports whether the point pins pause to the simulation duration.
func (p GridPoint) Static() bool { return p.HasPause && p.PauseSec < 0 }

// MaxGridCells caps how many cells one Grid may expand into. Points
// allocates every cell up front, so an unbounded product of a few long
// axes would exhaust memory before a single cell runs.
const MaxGridCells = 10000

// Size returns the number of cells the grid expands into (0 when no
// scheme is set), saturating at math.MaxInt rather than overflowing.
func (g Grid) Size() int {
	n := len(g.Schemes)
	for _, axis := range []int{len(g.Rates), len(g.PausesSec), len(g.FaultPresets), len(g.GossipFanouts), len(g.Channels), len(g.Mobilities), len(g.Policies), len(g.TxPowersDBm)} {
		if axis > 0 {
			if n > math.MaxInt/axis {
				return math.MaxInt
			}
			n *= axis
		}
	}
	return n
}

// validate rejects oversized grids and malformed axes before any
// expansion work.
func (g Grid) validate() error {
	if len(g.Schemes) == 0 {
		return fmt.Errorf("scenario: grid has no schemes")
	}
	if n := g.Size(); n > MaxGridCells {
		return fmt.Errorf("scenario: grid expands to %d cells, over the %d-cell cap", n, MaxGridCells)
	}
	for _, s := range g.Schemes {
		// Membership in the scheme registry, not an enum-span check: a
		// hard-coded span silently desyncs the moment a scheme is added.
		if !s.Known() {
			return fmt.Errorf("scenario: grid has invalid scheme %d", s)
		}
	}
	for _, r := range g.Rates {
		if r <= 0 {
			return fmt.Errorf("scenario: grid rate %v must be positive", r)
		}
	}
	for _, name := range g.FaultPresets {
		if _, err := fault.Preset(name); err != nil {
			return err
		}
	}
	for _, f := range g.GossipFanouts {
		if f < 0 {
			return fmt.Errorf("scenario: grid gossip fanout %v must be >= 0", f)
		}
	}
	for _, ch := range g.Channels {
		if ch != "" && !nameKnown(ch, ChannelNames()) {
			return fmt.Errorf("scenario: grid has unknown channel %q (want one of %v)", ch, ChannelNames())
		}
	}
	for _, m := range g.Mobilities {
		if m != "" && !nameKnown(m, MobilityNames()) {
			return fmt.Errorf("scenario: grid has unknown mobility %q (want one of %v)", m, MobilityNames())
		}
	}
	for _, p := range g.Policies {
		if p != "" && !core.PolicyKnown(p) {
			return fmt.Errorf("scenario: grid has unknown policy %q (want one of %v)", p, core.PolicyNames())
		}
	}
	for _, db := range g.TxPowersDBm {
		if !(db >= -40 && db <= 40) {
			return fmt.Errorf("scenario: grid tx power %v dB outside [-40, 40]", db)
		}
	}
	return nil
}

// Points expands the grid into its cells in the canonical order: scheme
// outermost, then rate, pause, fault preset, gossip fanout, channel,
// mobility, policy, and tx power innermost. The newer axes are innermost
// so a grid that leaves them empty expands to exactly the cells (in the
// same order) it did before the axes existed.
func (g Grid) Points() ([]GridPoint, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	// Optional axes collapse to a single "absent" entry so the nested
	// loops below always run once per axis.
	rates, hasRate := optionalAxis(g.Rates)
	pauses, hasPause := optionalAxis(g.PausesSec)
	faults, hasFault := optionalAxis(g.FaultPresets)
	gossips, hasGossip := optionalAxis(g.GossipFanouts)
	channels, hasChannel := optionalAxis(g.Channels)
	mobilities, hasMobility := optionalAxis(g.Mobilities)
	policies, hasPolicy := optionalAxis(g.Policies)
	txPowers, hasTxPower := optionalAxis(g.TxPowersDBm)

	pts := make([]GridPoint, 0, g.Size())
	for _, sch := range g.Schemes {
		for _, rate := range rates {
			for _, pause := range pauses {
				for _, fp := range faults {
					for _, gf := range gossips {
						for _, ch := range channels {
							for _, mb := range mobilities {
								for _, pol := range policies {
									for _, db := range txPowers {
										pts = append(pts, GridPoint{
											Scheme:       sch,
											HasRate:      hasRate,
											Rate:         rate,
											HasPause:     hasPause,
											PauseSec:     pause,
											HasFault:     hasFault,
											FaultPreset:  fp,
											HasGossip:    hasGossip,
											GossipFanout: gf,
											HasChannel:   hasChannel,
											Channel:      ch,
											HasMobility:  hasMobility,
											Mobility:     mb,
											HasPolicy:    hasPolicy,
											Policy:       pol,
											HasTxPower:   hasTxPower,
											TxPowerDBm:   db,
										})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// optionalAxis normalizes an axis: empty becomes one zero-value entry with
// present = false.
func optionalAxis[T any](axis []T) ([]T, bool) {
	if len(axis) == 0 {
		var zero T
		return []T{zero}, false
	}
	return axis, true
}

// Apply resolves the point against a base Config, returning the cell's
// runnable configuration. The base is taken by value and never mutated.
func (p GridPoint) Apply(base Config) (Config, error) {
	cfg := base
	cfg.Scheme = p.Scheme
	if p.HasRate {
		cfg.PacketRate = p.Rate
	}
	if p.HasPause {
		if p.PauseSec < 0 {
			cfg.Pause = cfg.Duration
		} else {
			cfg.Pause = sim.FromSeconds(p.PauseSec)
		}
	}
	if p.HasFault {
		plan, err := fault.Preset(p.FaultPreset)
		if err != nil {
			return cfg, err
		}
		cfg.Faults = plan
	}
	if p.HasGossip {
		cfg.GossipFanout = p.GossipFanout
	}
	if p.HasChannel {
		cfg.Channel = p.Channel
	}
	if p.HasMobility {
		cfg.Mobility = p.Mobility
	}
	if p.HasPolicy {
		cfg.PolicyName = p.Policy
	}
	if p.HasTxPower {
		cfg.TxPowerDBm = p.TxPowerDBm
	}
	return cfg, nil
}
