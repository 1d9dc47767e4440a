package scenario

import (
	"math"
	"testing"

	"rcast/internal/sim"
)

func TestGridSizeAndOrder(t *testing.T) {
	g := Grid{
		Schemes:   []Scheme{SchemeAlwaysOn, SchemeRcast},
		Rates:     []float64{0.4, 2.0},
		PausesSec: []float64{600, -1},
	}
	if got := g.Size(); got != 8 {
		t.Fatalf("Size = %d, want 8", got)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatalf("Points: %v", err)
	}
	if len(pts) != 8 {
		t.Fatalf("len(Points) = %d, want 8", len(pts))
	}
	// Canonical nesting: scheme outermost, then rate, then pause.
	want := []GridPoint{
		{Scheme: SchemeAlwaysOn, HasRate: true, Rate: 0.4, HasPause: true, PauseSec: 600},
		{Scheme: SchemeAlwaysOn, HasRate: true, Rate: 0.4, HasPause: true, PauseSec: -1},
		{Scheme: SchemeAlwaysOn, HasRate: true, Rate: 2.0, HasPause: true, PauseSec: 600},
		{Scheme: SchemeAlwaysOn, HasRate: true, Rate: 2.0, HasPause: true, PauseSec: -1},
		{Scheme: SchemeRcast, HasRate: true, Rate: 0.4, HasPause: true, PauseSec: 600},
		{Scheme: SchemeRcast, HasRate: true, Rate: 0.4, HasPause: true, PauseSec: -1},
		{Scheme: SchemeRcast, HasRate: true, Rate: 2.0, HasPause: true, PauseSec: 600},
		{Scheme: SchemeRcast, HasRate: true, Rate: 2.0, HasPause: true, PauseSec: -1},
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

func TestGridOptionalAxesKeepBase(t *testing.T) {
	g := Grid{Schemes: []Scheme{SchemeODPM}}
	pts, err := g.Points()
	if err != nil {
		t.Fatalf("Points: %v", err)
	}
	if len(pts) != 1 || g.Size() != 1 {
		t.Fatalf("singleton grid expanded to %d points (Size %d)", len(pts), g.Size())
	}
	base := PaperDefaults()
	base.PacketRate = 1.7
	base.Pause = 123 * sim.Second
	base.GossipFanout = 2
	cfg, err := pts[0].Apply(base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if cfg.Scheme != SchemeODPM {
		t.Fatalf("scheme = %v", cfg.Scheme)
	}
	if cfg.PacketRate != 1.7 || cfg.Pause != 123*sim.Second || cfg.GossipFanout != 2 {
		t.Fatalf("absent axes did not keep base values: %+v", cfg)
	}
}

func TestGridApplyAxes(t *testing.T) {
	base := PaperDefaults()
	base.Duration = 200 * sim.Second

	p := GridPoint{
		Scheme:  SchemeRcast,
		HasRate: true, Rate: 1.2,
		HasPause: true, PauseSec: -1, // static
		HasFault: true, FaultPreset: "crash",
		HasGossip: true, GossipFanout: 3,
	}
	if !p.Static() {
		t.Fatal("negative pause should report Static")
	}
	cfg, err := p.Apply(base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if cfg.PacketRate != 1.2 {
		t.Fatalf("rate = %v", cfg.PacketRate)
	}
	if cfg.Pause != cfg.Duration {
		t.Fatalf("static pause = %v, want duration %v", cfg.Pause, cfg.Duration)
	}
	if cfg.Faults == nil {
		t.Fatal("fault preset not applied")
	}
	if cfg.GossipFanout != 3 {
		t.Fatalf("gossip fanout = %v", cfg.GossipFanout)
	}

	p.PauseSec = 75
	cfg, err = p.Apply(base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if cfg.Pause != 75*sim.Second {
		t.Fatalf("pause = %v, want 75s", cfg.Pause)
	}
	// The base must not be mutated by Apply.
	if base.Scheme == SchemeRcast && base.PacketRate == 1.2 {
		t.Fatal("Apply mutated the base config")
	}
}

func TestGridValidation(t *testing.T) {
	cases := map[string]Grid{
		"no schemes":    {},
		"bad scheme":    {Schemes: []Scheme{Scheme(99)}},
		"zero rate":     {Schemes: []Scheme{SchemeRcast}, Rates: []float64{0}},
		"negative rate": {Schemes: []Scheme{SchemeRcast}, Rates: []float64{-0.5}},
		"unknown fault": {Schemes: []Scheme{SchemeRcast}, FaultPresets: []string{"warp"}},
		"bad gossip":    {Schemes: []Scheme{SchemeRcast}, GossipFanouts: []float64{-1}},
	}
	for name, g := range cases {
		if _, err := g.Points(); err == nil {
			t.Errorf("%s: expansion accepted", name)
		}
	}
	// The empty preset name is the "no faults" cell and must validate.
	ok := Grid{Schemes: []Scheme{SchemeRcast}, FaultPresets: []string{"", "crash"}}
	if _, err := ok.Points(); err != nil {
		t.Errorf("empty fault preset rejected: %v", err)
	}
}

// TestGridAcceptsRegisteredScheme is the regression test for the
// registry-desync bug: Grid.validate used to check schemes against a
// hard-coded enum span instead of the scheme registry, so a scheme
// registered outside that span was accepted by Config.Validate but
// rejected by every sweep. With the fix, grid validation and the
// registry cannot disagree by construction.
func TestGridAcceptsRegisteredScheme(t *testing.T) {
	const extra = Scheme(99)
	saved := schemeRegistry
	schemeRegistry = append(append([]Scheme(nil), saved...), extra)
	t.Cleanup(func() { schemeRegistry = saved })

	if !extra.Known() {
		t.Fatal("registered scheme not Known")
	}
	pts, err := Grid{Schemes: []Scheme{extra}}.Points()
	if err != nil {
		t.Fatalf("grid rejected a registered scheme: %v", err)
	}
	if len(pts) != 1 || pts[0].Scheme != extra {
		t.Fatalf("points = %+v", pts)
	}
}

func TestGridPolicyAndTxPowerAxes(t *testing.T) {
	g := Grid{
		Schemes:     []Scheme{SchemeRcast},
		Policies:    []string{"", "battery"},
		TxPowersDBm: []float64{-3, 0},
	}
	if got := g.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatalf("Points: %v", err)
	}
	// Policy expands outside tx power, both innermost of all axes.
	want := []GridPoint{
		{Scheme: SchemeRcast, HasPolicy: true, HasTxPower: true, TxPowerDBm: -3},
		{Scheme: SchemeRcast, HasPolicy: true, HasTxPower: true, TxPowerDBm: 0},
		{Scheme: SchemeRcast, HasPolicy: true, Policy: "battery", HasTxPower: true, TxPowerDBm: -3},
		{Scheme: SchemeRcast, HasPolicy: true, Policy: "battery", HasTxPower: true, TxPowerDBm: 0},
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
	cfg, err := pts[2].Apply(PaperDefaults())
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if cfg.PolicyName != "battery" || cfg.TxPowerDBm != -3 {
		t.Fatalf("Apply produced policy=%q txPower=%v", cfg.PolicyName, cfg.TxPowerDBm)
	}

	for _, bad := range []Grid{
		{Schemes: []Scheme{SchemeRcast}, Policies: []string{"fixed-0.50"}},
		{Schemes: []Scheme{SchemeRcast}, TxPowersDBm: []float64{-80}},
	} {
		if _, err := bad.Points(); err == nil {
			t.Fatalf("grid %+v accepted", bad)
		}
	}
}

func TestGridChannelMobilityAxes(t *testing.T) {
	g := Grid{
		Schemes:    []Scheme{SchemeRcast},
		Channels:   []string{"disk", "fading"},
		Mobilities: []string{"waypoint", "group"},
	}
	if got := g.Size(); got != 4 {
		t.Fatalf("Size = %d, want 4", got)
	}
	pts, err := g.Points()
	if err != nil {
		t.Fatalf("Points: %v", err)
	}
	// Channel expands outside mobility, both inside the legacy axes.
	want := []GridPoint{
		{Scheme: SchemeRcast, HasChannel: true, Channel: "disk", HasMobility: true, Mobility: "waypoint"},
		{Scheme: SchemeRcast, HasChannel: true, Channel: "disk", HasMobility: true, Mobility: "group"},
		{Scheme: SchemeRcast, HasChannel: true, Channel: "fading", HasMobility: true, Mobility: "waypoint"},
		{Scheme: SchemeRcast, HasChannel: true, Channel: "fading", HasMobility: true, Mobility: "group"},
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, pts[i], want[i])
		}
	}
	base := PaperDefaults()
	base.ShadowSigmaDB = 6
	cfg, err := pts[3].Apply(base)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if cfg.Channel != "fading" || cfg.Mobility != "group" {
		t.Fatalf("Apply produced channel=%q mobility=%q", cfg.Channel, cfg.Mobility)
	}

	for _, bad := range []Grid{
		{Schemes: []Scheme{SchemeRcast}, Channels: []string{"nakagami"}},
		{Schemes: []Scheme{SchemeRcast}, Mobilities: []string{"levy"}},
	} {
		if _, err := bad.Points(); err == nil {
			t.Fatalf("grid %+v accepted", bad)
		}
	}
}

// TestGridCellCap checks an oversized grid is refused before expansion:
// four 60,000-entry axes overflow a plain product, so Size must saturate
// and Points must return an error instead of panicking in make.
func TestGridCellCap(t *testing.T) {
	long := make([]float64, 60000)
	for i := range long {
		long[i] = float64(i + 1)
	}
	g := Grid{
		Schemes:       []Scheme{SchemeRcast},
		Rates:         long,
		PausesSec:     long,
		GossipFanouts: long,
		TxPowersDBm:   long,
	}
	if got := g.Size(); got != math.MaxInt {
		t.Fatalf("Size = %d, want saturated math.MaxInt", got)
	}
	if _, err := g.Points(); err == nil {
		t.Fatal("Points accepted an overflowing grid")
	}
	// The cap itself: exactly MaxGridCells expands, one more does not.
	g = Grid{Schemes: []Scheme{SchemeRcast}, Rates: long[:MaxGridCells]}
	if pts, err := g.Points(); err != nil || len(pts) != MaxGridCells {
		t.Fatalf("grid at the cap: %d points, err %v", len(pts), err)
	}
	g.Rates = long[:MaxGridCells+1]
	if _, err := g.Points(); err == nil {
		t.Fatal("Points accepted a grid one cell over the cap")
	}
}
