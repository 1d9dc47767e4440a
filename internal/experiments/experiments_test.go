package experiments

import (
	"bytes"
	"strings"
	"testing"

	"rcast/internal/fault"
	"rcast/internal/scenario"
	"rcast/internal/sim"
)

// tiny returns a profile small enough for unit tests (< 1 s per run).
func tiny() Profile {
	return Profile{
		Name:        "tiny",
		Nodes:       25,
		FieldW:      750,
		FieldH:      300,
		Connections: 5,
		Duration:    40 * sim.Second,
		Reps:        1,
		Rates:       []float64{0.4, 2.0},
		LowRate:     0.4,
		HighRate:    2.0,
		PauseMobile: 20 * sim.Second,
		BaseSeed:    1,
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// 802.11 nodes are always awake; Rcast nodes are not.
	if rows[0].Scheme != scenario.SchemeAlwaysOn || rows[0].AwakeFraction < 0.999 {
		t.Fatalf("802.11 awake fraction = %v", rows[0].AwakeFraction)
	}
	var rcastRow *Table1Row
	for i := range rows {
		if rows[i].Scheme == scenario.SchemeRcast {
			rcastRow = &rows[i]
		}
	}
	if rcastRow == nil || rcastRow.AwakeFraction > 0.9 {
		t.Fatalf("Rcast awake fraction = %+v", rcastRow)
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("report missing header")
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	panels, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 4 {
		t.Fatalf("got %d panels, want 4", len(panels))
	}
	for _, p := range panels {
		for sch, curve := range p.Curves {
			if len(curve) != tiny().Nodes {
				t.Fatalf("%v curve has %d points", sch, len(curve))
			}
			for i := 1; i < len(curve); i++ {
				if curve[i] < curve[i-1] {
					t.Fatalf("%v curve not ascending", sch)
				}
			}
		}
		// The headline: Rcast's hottest node is cooler than 802.11's flat line.
		rc := p.Curves[scenario.SchemeRcast]
		ao := p.Curves[scenario.SchemeAlwaysOn]
		if rc[len(rc)-1] >= ao[len(ao)-1]+1e-9 {
			t.Fatalf("Rcast max %.1f not below 802.11 %.1f", rc[len(rc)-1], ao[len(ao)-1])
		}
	}
}

func TestSweepFiguresShareRuns(t *testing.T) {
	s := NewSuite(tiny(), nil)
	if _, err := s.Fig6(); err != nil {
		t.Fatal(err)
	}
	after6 := s.Runs()
	if _, err := s.Fig7(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if s.Runs() != after6 {
		t.Fatalf("Figs 7/8 re-ran simulations: %d -> %d", after6, s.Runs())
	}
}

func TestFig6VarianceShape(t *testing.T) {
	s := NewSuite(tiny(), nil)
	points, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Scheme == scenario.SchemeAlwaysOn && p.EnergyVariance != 0 {
			t.Fatalf("802.11 variance = %v at rate %v", p.EnergyVariance, p.Rate)
		}
		if p.EnergyVariance < 0 {
			t.Fatal("negative variance")
		}
	}
}

func TestFig7EnergyOrdering(t *testing.T) {
	s := NewSuite(tiny(), nil)
	points, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		scheme scenario.Scheme
		rate   float64
		static bool
	}
	byKey := make(map[key]SweepPoint)
	for _, p := range points {
		byKey[key{p.Scheme, p.Rate, p.Static}] = p
	}
	for _, rate := range tiny().Rates {
		ao := byKey[key{scenario.SchemeAlwaysOn, rate, false}]
		rc := byKey[key{scenario.SchemeRcast, rate, false}]
		if rc.TotalJoules >= ao.TotalJoules {
			t.Fatalf("rate %.1f: Rcast energy %.0f not below 802.11 %.0f",
				rate, rc.TotalJoules, ao.TotalJoules)
		}
		if rc.PDR < 0.5 || ao.PDR < 0.5 {
			t.Fatalf("rate %.1f: implausible PDR (rcast %.2f, 802.11 %.2f)", rate, rc.PDR, ao.PDR)
		}
	}
}

func TestFig8DelayOrdering(t *testing.T) {
	s := NewSuite(tiny(), nil)
	points, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for _, rate := range tiny().Rates {
		var ao, rc SweepPoint
		for _, p := range points {
			if p.Rate != rate || p.Static {
				continue
			}
			switch p.Scheme {
			case scenario.SchemeAlwaysOn:
				ao = p
			case scenario.SchemeRcast:
				rc = p
			}
		}
		if rc.AvgDelaySec <= ao.AvgDelaySec {
			t.Fatalf("rate %.1f: Rcast delay %.3f not above 802.11 %.3f",
				rate, rc.AvgDelaySec, ao.AvgDelaySec)
		}
	}
}

func TestFig9(t *testing.T) {
	s := NewSuite(tiny(), nil)
	panels, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("got %d panels, want 6", len(panels))
	}
	for _, p := range panels {
		if p.RoleMax < p.RoleMean {
			t.Fatalf("%v: RoleMax %v < RoleMean %v", p.Scheme, p.RoleMax, p.RoleMean)
		}
		if p.Scheme == scenario.SchemeAlwaysOn && p.Correlation != 0 {
			// 802.11 energy is flat, so the correlation is undefined -> 0.
			t.Fatalf("802.11 correlation = %v", p.Correlation)
		}
	}
}

func TestAblations(t *testing.T) {
	s := NewSuite(tiny(), nil)
	pols, err := s.AblationPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if len(pols) != 5 {
		t.Fatalf("A1: %d rows", len(pols))
	}
	lvls, err := s.AblationLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(lvls) != 3 {
		t.Fatalf("A2: %d rows", len(lvls))
	}
	// Randomized overhearing must cost less than unconditional.
	var uncond, rcast float64
	for _, l := range lvls {
		switch l.Scheme {
		case scenario.SchemePSM:
			uncond = l.TotalJoules
		case scenario.SchemeRcast:
			rcast = l.TotalJoules
		}
	}
	if rcast >= uncond {
		t.Fatalf("A2: Rcast %.0f J not below unconditional %.0f J", rcast, uncond)
	}
	goss, err := s.AblationGossip()
	if err != nil {
		t.Fatal(err)
	}
	if len(goss) != 2 {
		t.Fatalf("A3: %d rows", len(goss))
	}
}

func TestAblationCacheStrategies(t *testing.T) {
	s := NewSuite(tiny(), nil)
	rows, err := s.AblationCacheStrategies()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("A4: %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PDR < 0.3 {
			t.Fatalf("A4 %q: PDR %.3f implausible", r.Label, r.PDR)
		}
	}
}

func TestAblationLifetime(t *testing.T) {
	s := NewSuite(tiny(), nil)
	rows, err := s.AblationLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("A5: %d rows", len(rows))
	}
	var ao, rc LifetimeResult
	for _, r := range rows {
		switch r.Scheme {
		case scenario.SchemeAlwaysOn:
			ao = r
		case scenario.SchemeRcast:
			rc = r
		}
	}
	// The battery is sized so every always-awake node dies mid-run.
	if ao.DeadNodes != tiny().Nodes {
		t.Fatalf("A5: 802.11 lost %d nodes, want all %d", ao.DeadNodes, tiny().Nodes)
	}
	if rc.DeadNodes >= ao.DeadNodes {
		t.Fatalf("A5: Rcast lost %d nodes, not fewer than 802.11's %d", rc.DeadNodes, ao.DeadNodes)
	}
	if ao.FirstDeathSec <= 0 {
		t.Fatal("A5: no first-death time recorded for 802.11")
	}
}

func TestAblationATIM(t *testing.T) {
	s := NewSuite(tiny(), nil)
	rows, err := s.AblationATIM()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("A7: %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Contention && r.AtimFailures != 0 {
			t.Fatalf("A7: reliable mode reported %v ATIM failures", r.AtimFailures)
		}
		if r.PDR < 0.3 {
			t.Fatalf("A7: PDR %.3f implausible", r.PDR)
		}
	}
}

func TestAblationRouting(t *testing.T) {
	s := NewSuite(tiny(), nil)
	rows, err := s.AblationRouting()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("A6: %d rows", len(rows))
	}
	for _, r := range rows {
		if r.PDR < 0.3 {
			t.Fatalf("A6 %v/%v: PDR %.3f implausible", r.Routing, r.Scheme, r.PDR)
		}
		if r.Routing == scenario.RoutingDSR && r.HelloTx != 0 {
			t.Fatal("A6: DSR reported hello traffic")
		}
		if r.Routing == scenario.RoutingAODV && r.Hello && r.HelloTx == 0 {
			t.Fatal("A6: hello-enabled AODV sent no hellos")
		}
	}
}

func TestAblationFaults(t *testing.T) {
	s := NewSuite(tiny(), nil)
	rows, err := s.AblationFaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("A8: %d rows, want 4 variants x 4 schemes", len(rows))
	}
	for _, r := range rows {
		switch r.Variant {
		case "none":
			if r.Crashes != 0 || r.Flushed != 0 || r.FaultLost != 0 {
				t.Fatalf("A8 none/%v: fault counters nonzero: %+v", r.Scheme, r)
			}
		case "crash":
			if r.Crashes == 0 {
				t.Fatalf("A8 crash/%v: no crashes recorded", r.Scheme)
			}
			if r.FaultLost != 0 {
				t.Fatalf("A8 crash/%v: burst loss leaked into the crash-only cell", r.Scheme)
			}
		case "burst-loss":
			if r.FaultLost == 0 {
				t.Fatalf("A8 burst-loss/%v: loss model vanished no frames", r.Scheme)
			}
			if r.Crashes != 0 {
				t.Fatalf("A8 burst-loss/%v: crashes leaked into the loss-only cell", r.Scheme)
			}
		case "crash+loss":
			if r.Crashes == 0 || r.FaultLost == 0 {
				t.Fatalf("A8 crash+loss/%v: combined cell missing a fault class: %+v", r.Scheme, r)
			}
		default:
			t.Fatalf("A8: unknown variant %q", r.Variant)
		}
	}
}

func TestSetFaultsAppliesToSuiteRuns(t *testing.T) {
	s := NewSuite(tiny(), nil)
	cell := func() []scenario.Config {
		return []scenario.Config{s.cell(scenario.SchemeRcast, tiny().LowRate, false)}
	}
	clean, err := s.aggregates(cell())
	if err != nil {
		t.Fatal(err)
	}
	if clean[0].Results[0].NodeCrashes != 0 {
		t.Fatal("unfaulted suite run recorded crashes")
	}
	plan, err := fault.Preset("crash")
	if err != nil {
		t.Fatal(err)
	}
	s.SetFaults(plan)
	if s.Runs() != 0 {
		t.Fatal("SetFaults did not clear the run cache")
	}
	faulted, err := s.aggregates(cell())
	if err != nil {
		t.Fatal(err)
	}
	if faulted[0].Results[0].NodeCrashes == 0 {
		t.Fatal("SetFaults plan did not reach the suite's simulations")
	}
}

func TestAllRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	var buf bytes.Buffer
	s := NewSuite(tiny(), &buf)
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1", "Fig 5", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
		"Ablation A1", "Ablation A2", "Ablation A3", "Ablation A8"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestAllSimulatesEachCellOnce checks the suite's single run path: after
// All, every distinct canonical cell across the registry has run exactly
// once, and no cell ran twice.
func TestAllSimulatesEachCellOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	s := NewSuite(tiny(), nil)
	if err := s.All(); err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, e := range registry {
		for _, cfg := range e.cells(s) {
			k, err := cfg.CanonicalKey(tiny().Reps)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			keys[k] = true
		}
	}
	if s.Runs() != len(keys) {
		t.Fatalf("Runs() = %d, want %d distinct cells", s.Runs(), len(keys))
	}
	if want := int64(len(keys) * tiny().Reps); s.SimRuns() != want {
		t.Fatalf("SimRuns() = %d, want %d", s.SimRuns(), want)
	}
}

func TestRunRejectsUnknownName(t *testing.T) {
	s := NewSuite(tiny(), nil)
	if err := s.Run("table1", "fig99"); err == nil {
		t.Fatal("accepted unknown experiment")
	}
	if s.SimRuns() != 0 {
		t.Fatalf("unknown name still ran %d simulations", s.SimRuns())
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Paper(), Quick()} {
		foundLow, foundHigh := false, false
		for _, r := range p.Rates {
			if r == p.LowRate {
				foundLow = true
			}
			if r == p.HighRate {
				foundHigh = true
			}
		}
		if !foundLow || !foundHigh {
			t.Fatalf("profile %s: corner rates not in sweep", p.Name)
		}
		if p.Nodes < 2 || p.Duration <= 0 || p.Reps < 1 {
			t.Fatalf("profile %s: invalid scale", p.Name)
		}
	}
}
