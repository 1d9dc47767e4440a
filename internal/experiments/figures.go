package experiments

import (
	"rcast/internal/scenario"
	"rcast/internal/stats"
)

// Table1Row is one scheme's measured behaviour (paper Table 1 validated
// quantitatively at the mobile low-rate operating point).
type Table1Row struct {
	Scheme        scenario.Scheme
	Behavior      string
	AwakeFraction float64 // mean fraction of the run nodes spent awake
	TotalJoules   float64
	PDR           float64
	AvgDelaySec   float64
}

var behaviors = map[scenario.Scheme]string{
	scenario.SchemeAlwaysOn: "no PSM; always awake; immediate transmission",
	scenario.SchemeODPM:     "AM for 5s after RREP / 2s after data; fast path between AM nodes",
	scenario.SchemeRcast:    "always PS; per-packet overhearing level; beacon-deferred transmission",
}

// Table1 reproduces the protocol-behaviour comparison.
func (s *Suite) Table1() ([]Table1Row, error) {
	return generate(s, (*Suite).table1Cells, (*Suite).table1)
}

// table1Cells are the figure schemes at the low-rate mobile point.
func (s *Suite) table1Cells() []scenario.Config {
	return s.schemeCells(figureSchemes, s.p.LowRate, false)
}

func (s *Suite) table1(aggs []*scenario.Aggregate) []Table1Row {
	s.printf("== Table 1: protocol behaviour (rate=%.1f pkt/s, mobile) ==\n", s.p.LowRate)
	s.printf("%-8s %-10s %-8s %-10s %-10s %s\n",
		"scheme", "awakeFrac", "PDR", "delay(s)", "energy(J)", "behaviour")
	rows := make([]Table1Row, len(figureSchemes))
	for i, sch := range figureSchemes {
		a := aggs[i]
		row := Table1Row{
			Scheme:        sch,
			Behavior:      behaviors[sch],
			AwakeFraction: awakeFraction(a.Results[0]),
			TotalJoules:   a.TotalJoules.Mean(),
			PDR:           a.PDR.Mean(),
			AvgDelaySec:   a.AvgDelaySec.Mean(),
		}
		rows[i] = row
		s.printf("%-8s %-10.3f %-8.3f %-10.3f %-10.0f %s\n",
			sch, row.AwakeFraction, row.PDR, row.AvgDelaySec, row.TotalJoules, row.Behavior)
	}
	s.printf("\n")
	return rows
}

// awakeFraction estimates the mean awake fraction from per-node energy:
// invert J = Pawake*f*T + Psleep*(1-f)*T.
func awakeFraction(r *scenario.Result) float64 {
	const pAwake, pSleep = 1.15, 0.045
	T := r.Duration.Seconds()
	mean := stats.Mean(r.PerNodeJoules)
	f := (mean/T - pSleep) / (pAwake - pSleep)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Fig5Panel is one panel of Fig. 5: per-node energy in ascending order.
type Fig5Panel struct {
	Rate   float64
	Static bool
	// Curves maps each scheme to its ascending per-node energy curve
	// (mean over replications).
	Curves map[scenario.Scheme][]float64
}

// Fig5 reproduces "Energy consumption comparison at each node": four
// panels (low/high rate × mobile/static), nodes sorted by consumption.
func (s *Suite) Fig5() ([]Fig5Panel, error) {
	return generate(s, (*Suite).fig5Cells, (*Suite).fig5)
}

// fig5Cells are pause × corner rate × figure scheme.
func (s *Suite) fig5Cells() []scenario.Config {
	var cells []scenario.Config
	for _, static := range []bool{false, true} {
		for _, rate := range s.cornerRates() {
			cells = append(cells, s.schemeCells(figureSchemes, rate, static)...)
		}
	}
	return cells
}

// fig5Panels builds the panels from fig5Cells' aggregates without
// printing; the CSV export shares it.
func (s *Suite) fig5Panels(aggs []*scenario.Aggregate) []Fig5Panel {
	var panels []Fig5Panel
	for _, static := range []bool{false, true} {
		for _, rate := range s.cornerRates() {
			panel := Fig5Panel{Rate: rate, Static: static, Curves: make(map[scenario.Scheme][]float64)}
			for _, sch := range figureSchemes {
				panel.Curves[sch] = aggs[0].MeanSortedJoules
				aggs = aggs[1:]
			}
			panels = append(panels, panel)
		}
	}
	return panels
}

func (s *Suite) fig5(aggs []*scenario.Aggregate) []Fig5Panel {
	panels := s.fig5Panels(aggs)
	for _, panel := range panels {
		s.printf("== Fig 5: per-node energy, ascending (Rpkt=%.1f, %s) ==\n",
			panel.Rate, pauseLabel(panel.Static))
		s.printf("%-8s %8s %8s %8s %8s %8s\n", "scheme", "min", "p25", "p50", "p75", "max")
		for _, sch := range figureSchemes {
			curve := panel.Curves[sch]
			s.printf("%-8s %8.1f %8.1f %8.1f %8.1f %8.1f\n", sch,
				stats.Percentile(curve, 0), stats.Percentile(curve, 25),
				stats.Percentile(curve, 50), stats.Percentile(curve, 75),
				stats.Percentile(curve, 100))
		}
		s.printf("\n")
	}
	return panels
}

// SweepPoint is one (scheme, rate) sample of the Figs. 6–8 sweeps.
type SweepPoint struct {
	Scheme             scenario.Scheme
	Rate               float64
	Static             bool
	TotalJoules        float64
	EnergyVariance     float64
	PDR                float64
	EnergyPerBit       float64
	AvgDelaySec        float64
	NormalizedOverhead float64
}

// sweepCells are the Figs. 6–8 rate sweep, pause × rate × figure scheme.
// They also cover Table 1, Fig. 5 and Fig. 9, whose corner rates are in
// the sweep.
func (s *Suite) sweepCells() []scenario.Config {
	var cells []scenario.Config
	for _, static := range []bool{false, true} {
		for _, rate := range s.p.Rates {
			cells = append(cells, s.schemeCells(figureSchemes, rate, static)...)
		}
	}
	return cells
}

// sweepPoints reads sweepCells' aggregates without printing.
func (s *Suite) sweepPoints(aggs []*scenario.Aggregate) []SweepPoint {
	var out []SweepPoint
	for _, static := range []bool{false, true} {
		for _, rate := range s.p.Rates {
			for _, sch := range figureSchemes {
				a := aggs[len(out)]
				out = append(out, SweepPoint{
					Scheme:             sch,
					Rate:               rate,
					Static:             static,
					TotalJoules:        a.TotalJoules.Mean(),
					EnergyVariance:     a.EnergyVariance.Mean(),
					PDR:                a.PDR.Mean(),
					EnergyPerBit:       a.EnergyPerBit.Mean(),
					AvgDelaySec:        a.AvgDelaySec.Mean(),
					NormalizedOverhead: a.NormalizedOverhead.Mean(),
				})
			}
		}
	}
	return out
}

// sweepMetric is one panel series of Figs. 6–8.
type sweepMetric struct {
	name   string
	format string
	get    func(SweepPoint) float64
}

// Fig6 reproduces "variance of energy consumption" vs packet rate for
// mobile and static scenarios.
func (s *Suite) Fig6() ([]SweepPoint, error) {
	return generate(s, (*Suite).sweepCells, (*Suite).fig6)
}

func (s *Suite) fig6(aggs []*scenario.Aggregate) []SweepPoint {
	return s.sweepFigure(6, aggs,
		sweepMetric{name: "variance of per-node energy", format: "%10.0f", get: func(p SweepPoint) float64 { return p.EnergyVariance }})
}

// Fig7 reproduces total energy, packet delivery ratio and energy-per-bit
// vs packet rate (six panels).
func (s *Suite) Fig7() ([]SweepPoint, error) {
	return generate(s, (*Suite).sweepCells, (*Suite).fig7)
}

func (s *Suite) fig7(aggs []*scenario.Aggregate) []SweepPoint {
	return s.sweepFigure(7, aggs,
		sweepMetric{name: "total energy (J)", format: "%10.0f", get: func(p SweepPoint) float64 { return p.TotalJoules }},
		sweepMetric{name: "packet delivery ratio", format: "%10.3f", get: func(p SweepPoint) float64 { return p.PDR }},
		sweepMetric{name: "energy per bit (J/bit)", format: "%10.2e", get: func(p SweepPoint) float64 { return p.EnergyPerBit }})
}

// Fig8 reproduces average packet delay and normalized routing overhead vs
// packet rate (four panels).
func (s *Suite) Fig8() ([]SweepPoint, error) {
	return generate(s, (*Suite).sweepCells, (*Suite).fig8)
}

func (s *Suite) fig8(aggs []*scenario.Aggregate) []SweepPoint {
	return s.sweepFigure(8, aggs,
		sweepMetric{name: "average delay (s)", format: "%10.3f", get: func(p SweepPoint) float64 { return p.AvgDelaySec }},
		sweepMetric{name: "normalized routing overhead", format: "%10.2f", get: func(p SweepPoint) float64 { return p.NormalizedOverhead }})
}

// sweepFigure prints one rate-vs-scheme panel per (pause, metric).
func (s *Suite) sweepFigure(fig int, aggs []*scenario.Aggregate, metrics ...sweepMetric) []SweepPoint {
	points := s.sweepPoints(aggs)
	n := len(figureSchemes)
	for si, static := range []bool{false, true} {
		for _, m := range metrics {
			s.printf("== Fig %d: %s (%s) ==\n", fig, m.name, pauseLabel(static))
			s.printf("%-6s", "rate")
			for _, sch := range figureSchemes {
				s.printf("%10s", sch.String())
			}
			s.printf("\n")
			for ri, rate := range s.p.Rates {
				s.printf("%-6.1f", rate)
				for _, p := range points[(si*len(s.p.Rates)+ri)*n:][:n] {
					s.printf(m.format, m.get(p))
				}
				s.printf("\n")
			}
			s.printf("\n")
		}
	}
	return points
}

// Fig9Panel digests one scatter panel of Fig. 9: role number vs per-node
// energy for one scheme at one rate (mobile scenario, Tpause=600 in the
// paper).
type Fig9Panel struct {
	Scheme      scenario.Scheme
	Rate        float64
	RoleMax     float64
	RoleMean    float64
	RoleP90     float64
	EnergyMax   float64
	EnergyMean  float64
	Correlation float64 // Pearson correlation of (role, energy) over nodes
}

// Fig9 reproduces "comparison of role number and energy consumption".
func (s *Suite) Fig9() ([]Fig9Panel, error) {
	return generate(s, (*Suite).fig9Cells, (*Suite).fig9)
}

// fig9Cells are corner rate × figure scheme, mobile.
func (s *Suite) fig9Cells() []scenario.Config {
	var cells []scenario.Config
	for _, rate := range s.cornerRates() {
		cells = append(cells, s.schemeCells(figureSchemes, rate, false)...)
	}
	return cells
}

func (s *Suite) fig9(aggs []*scenario.Aggregate) []Fig9Panel {
	var panels []Fig9Panel
	s.printf("== Fig 9: role number vs per-node energy (mobile) ==\n")
	s.printf("%-8s %-6s %9s %9s %9s %9s %9s %6s\n",
		"scheme", "rate", "roleMax", "roleMean", "roleP90", "energyMax", "energyAvg", "corr")
	for _, rate := range s.cornerRates() {
		for _, sch := range figureSchemes {
			r := aggs[len(panels)].Results[0]
			p := Fig9Panel{
				Scheme:      sch,
				Rate:        rate,
				RoleMax:     stats.Max(r.RoleNumbers),
				RoleMean:    stats.Mean(r.RoleNumbers),
				RoleP90:     stats.Percentile(r.RoleNumbers, 90),
				EnergyMax:   stats.Max(r.PerNodeJoules),
				EnergyMean:  stats.Mean(r.PerNodeJoules),
				Correlation: stats.Correlation(r.RoleNumbers, r.PerNodeJoules),
			}
			panels = append(panels, p)
			s.printf("%-8s %-6.1f %9.0f %9.1f %9.1f %9.1f %9.1f %6.2f\n",
				sch, rate, p.RoleMax, p.RoleMean, p.RoleP90, p.EnergyMax, p.EnergyMean, p.Correlation)
		}
	}
	s.printf("\n")
	return panels
}
