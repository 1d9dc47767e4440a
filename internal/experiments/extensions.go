package experiments

import (
	"rcast/internal/core"
	"rcast/internal/scenario"
	"rcast/internal/sim"
)

// CacheResult is one row of the route-cache strategy ablation.
type CacheResult struct {
	Label       string
	Capacity    int
	Lifetime    sim.Time
	PDR         float64
	Overhead    float64
	TotalJoules float64
	AvgDelaySec float64
}

var cacheVariants = []CacheResult{
	{Label: "default (64, no timeout)", Capacity: 64},
	{Label: "small cache (8)", Capacity: 8},
	{Label: "timeout 30s", Capacity: 64, Lifetime: 30 * sim.Second},
	{Label: "timeout 5s", Capacity: 64, Lifetime: 5 * sim.Second},
}

// AblationCacheStrategies probes the open question the paper poses in its
// contributions list: do conventional DSR route-caching strategies still
// work when overhearing is limited by Rcast? It sweeps cache capacity and
// the Hu & Johnson cache-timeout mechanism on the Rcast stack.
func (s *Suite) AblationCacheStrategies() ([]CacheResult, error) {
	return generate(s, (*Suite).cacheCells, (*Suite).cacheStrategies)
}

func (s *Suite) cacheCells() []scenario.Config {
	cells := make([]scenario.Config, len(cacheVariants))
	for i, v := range cacheVariants {
		cells[i] = s.cell(scenario.SchemeRcast, s.p.LowRate, false)
		cells[i].DSR.CacheCapacity = v.Capacity
		cells[i].DSR.CacheLifetime = v.Lifetime
	}
	return cells
}

func (s *Suite) cacheStrategies(aggs []*scenario.Aggregate) []CacheResult {
	s.printf("== Ablation A4: DSR cache strategies under Rcast (rate=%.1f, mobile) ==\n", s.p.LowRate)
	s.printf("%-24s %8s %9s %10s %9s\n", "variant", "PDR", "overhead", "energy(J)", "delay(s)")
	rows := make([]CacheResult, len(cacheVariants))
	for i, v := range cacheVariants {
		a := aggs[i]
		v.PDR = a.PDR.Mean()
		v.Overhead = a.NormalizedOverhead.Mean()
		v.TotalJoules = a.TotalJoules.Mean()
		v.AvgDelaySec = a.AvgDelaySec.Mean()
		rows[i] = v
		s.printf("%-24s %8.3f %9.2f %10.0f %9.3f\n",
			v.Label, v.PDR, v.Overhead, v.TotalJoules, v.AvgDelaySec)
	}
	s.printf("\n")
	return rows
}

// LifetimeResult is one row of the network-lifetime experiment.
type LifetimeResult struct {
	Scheme        scenario.Scheme
	FirstDeathSec float64 // 0 = no deaths
	DeadNodes     int
	PDR           float64
}

// AblationLifetime runs the three schemes with finite batteries sized so
// an always-awake node dies mid-run, and reports when nodes start dying —
// the device/network-lifetime motivation of the paper's introduction.
func (s *Suite) AblationLifetime() ([]LifetimeResult, error) {
	return generate(s, (*Suite).lifetimeCells, (*Suite).lifetime)
}

// battery is the A5 budget: an always-awake node drains in 60% of the run.
func (s *Suite) battery() float64 { return 1.15 * s.p.Duration.Seconds() * 0.6 }

func (s *Suite) lifetimeCells() []scenario.Config {
	cells := s.schemeCells(figureSchemes, s.p.LowRate, false)
	for i := range cells {
		cells[i].BatteryJoules = s.battery()
	}
	return cells
}

func (s *Suite) lifetime(aggs []*scenario.Aggregate) []LifetimeResult {
	s.printf("== Ablation A5: network lifetime with %.0f J batteries (rate=%.1f, mobile) ==\n",
		s.battery(), s.p.LowRate)
	s.printf("%-8s %14s %10s %8s\n", "scheme", "firstDeath(s)", "deadNodes", "PDR")
	rows := make([]LifetimeResult, len(figureSchemes))
	for i, sch := range figureSchemes {
		a := aggs[i]
		var first float64
		var dead int
		for _, r := range a.Results {
			first += r.FirstDeath.Seconds()
			dead += r.DeadNodes
		}
		row := LifetimeResult{
			Scheme:        sch,
			FirstDeathSec: first / float64(len(a.Results)),
			DeadNodes:     dead / len(a.Results),
			PDR:           a.PDR.Mean(),
		}
		rows[i] = row
		s.printf("%-8s %14.0f %10d %8.3f\n", sch, row.FirstDeathSec, row.DeadNodes, row.PDR)
	}
	s.printf("\n")
	return rows
}

// ATIMResult is one row of the ATIM-reliability sensitivity study.
type ATIMResult struct {
	Contention   bool
	Rate         float64
	PDR          float64
	AvgDelaySec  float64
	TotalJoules  float64
	AtimFailures float64 // packets dropped after repeated failed ATIMs
}

// AblationATIM quantifies the paper's §4.1 modelling assumption that ATIM
// advertisements are delivered reliably. It reruns the Rcast stack with a
// slotted contention model of the ATIM window (collisions defer packets;
// repeated losses drop them) at the low- and high-rate mobile points. The
// paper predicts heavier traffic makes the assumption optimistic ("nodes
// fail to deliver ATIM frames … the actual performance would be better
// than the one reported in this paper").
func (s *Suite) AblationATIM() ([]ATIMResult, error) {
	return generate(s, (*Suite).atimCells, (*Suite).atim)
}

// atimCells are corner rate × (reliable, contention) on the Rcast stack.
func (s *Suite) atimCells() []scenario.Config {
	var cells []scenario.Config
	for _, rate := range s.cornerRates() {
		for _, contention := range []bool{false, true} {
			cfg := s.cell(scenario.SchemeRcast, rate, false)
			cfg.MAC.ATIMContention = contention
			cells = append(cells, cfg)
		}
	}
	return cells
}

func (s *Suite) atim(aggs []*scenario.Aggregate) []ATIMResult {
	s.printf("== Ablation A7: ATIM reliability assumption (Rcast stack, mobile) ==\n")
	s.printf("%-12s %-6s %8s %9s %10s %10s\n",
		"atim", "rate", "PDR", "delay(s)", "energy(J)", "atimFail")
	var rows []ATIMResult
	for _, rate := range s.cornerRates() {
		for _, contention := range []bool{false, true} {
			a := aggs[len(rows)]
			var fails float64
			for _, r := range a.Results {
				fails += float64(r.MACTotal.AtimFailures)
			}
			row := ATIMResult{
				Contention:   contention,
				Rate:         rate,
				PDR:          a.PDR.Mean(),
				AvgDelaySec:  a.AvgDelaySec.Mean(),
				TotalJoules:  a.TotalJoules.Mean(),
				AtimFailures: fails / float64(len(a.Results)),
			}
			rows = append(rows, row)
			label := "reliable"
			if contention {
				label = "contention"
			}
			s.printf("%-12s %-6.1f %8.3f %9.3f %10.0f %10.0f\n",
				label, rate, row.PDR, row.AvgDelaySec, row.TotalJoules, row.AtimFailures)
		}
	}
	s.printf("\n")
	return rows
}

// RoutingResult is one row of the DSR-vs-AODV comparison.
type RoutingResult struct {
	Routing     scenario.Routing
	Hello       bool
	Scheme      scenario.Scheme
	PDR         float64
	Overhead    float64
	TotalJoules float64
	RREQShare   float64 // RREQ fraction of control transmissions
	HelloTx     float64 // mean hello transmissions per replication
}

var routingVariants = []struct {
	label   string
	routing scenario.Routing
	hello   bool
}{
	{label: "DSR", routing: scenario.RoutingDSR},
	{label: "AODV (no hello)", routing: scenario.RoutingAODV},
	{label: "AODV (hello 1s)", routing: scenario.RoutingAODV, hello: true},
}

var routingSchemes = []scenario.Scheme{scenario.SchemeAlwaysOn, scenario.SchemeRcast}

// AblationRouting reproduces the paper's §1 contrast between DSR and AODV
// (experiment A6): AODV's timeout-driven tables re-flood aggressively
// (Das et al.: ~90% of its overhead is RREQ) and its periodic hellos are
// hostile to PSM. Compared on the always-on and Rcast stacks.
func (s *Suite) AblationRouting() ([]RoutingResult, error) {
	return generate(s, (*Suite).routingCells, (*Suite).routing)
}

func (s *Suite) routingCells() []scenario.Config {
	var cells []scenario.Config
	for _, v := range routingVariants {
		for _, cfg := range s.schemeCells(routingSchemes, s.p.LowRate, false) {
			cfg.Routing = v.routing
			if v.routing == scenario.RoutingAODV && !v.hello {
				cfg.AODV.HelloInterval = 0
			}
			cells = append(cells, cfg)
		}
	}
	return cells
}

func (s *Suite) routing(aggs []*scenario.Aggregate) []RoutingResult {
	s.printf("== Ablation A6: DSR vs AODV (rate=%.1f, mobile) ==\n", s.p.LowRate)
	s.printf("%-18s %-8s %8s %9s %10s %9s %9s\n",
		"routing", "scheme", "PDR", "overhead", "energy(J)", "rreq%", "hello")
	var rows []RoutingResult
	for _, v := range routingVariants {
		for _, sch := range routingSchemes {
			a := aggs[len(rows)]
			var rreq, ctl, hello float64
			for _, r := range a.Results {
				rreq += float64(r.ControlByClass[core.ClassRREQ])
				ctl += float64(r.ControlTx)
				hello += float64(r.AODVTotal.HelloSent)
			}
			row := RoutingResult{
				Routing:     v.routing,
				Hello:       v.hello,
				Scheme:      sch,
				PDR:         a.PDR.Mean(),
				Overhead:    a.NormalizedOverhead.Mean(),
				TotalJoules: a.TotalJoules.Mean(),
				HelloTx:     hello / float64(len(a.Results)),
			}
			if ctl > 0 {
				row.RREQShare = rreq / ctl
			}
			rows = append(rows, row)
			s.printf("%-18s %-8s %8.3f %9.2f %10.0f %8.0f%% %9.0f\n",
				v.label, sch, row.PDR, row.Overhead, row.TotalJoules,
				100*row.RREQShare, row.HelloTx)
		}
	}
	s.printf("\n")
	return rows
}
