package experiments

import (
	"rcast/internal/core"
	"rcast/internal/scenario"
)

// PolicyResult is one row of the overhearing-policy ablation.
type PolicyResult struct {
	Policy         string
	TotalJoules    float64
	EnergyVariance float64
	PDR            float64
	AvgDelaySec    float64
	Overhead       float64
}

var policyNames = []string{"rcast", "sender-id", "battery", "mobility", "combined"}

// AblationPolicies compares the paper's evaluated P_R = 1/neighbors policy
// against the §3.2/§5 factor policies (sender ID, battery, mobility, and
// all factors combined) on the Rcast stack at the low-rate mobile point.
func (s *Suite) AblationPolicies() ([]PolicyResult, error) {
	return generate(s, (*Suite).policyCells, (*Suite).policies)
}

func (s *Suite) policyCells() []scenario.Config {
	cells := make([]scenario.Config, len(policyNames))
	for i, name := range policyNames {
		cells[i] = s.cell(scenario.SchemeRcast, s.p.LowRate, false)
		cells[i].PolicyName = name
	}
	return cells
}

func (s *Suite) policies(aggs []*scenario.Aggregate) []PolicyResult {
	s.printf("== Ablation A1: overhearing-decision factors (Rcast stack, rate=%.1f, mobile) ==\n", s.p.LowRate)
	s.printf("%-10s %10s %10s %8s %9s %9s\n", "policy", "energy(J)", "varJ", "PDR", "delay(s)", "overhead")
	rows := make([]PolicyResult, len(policyNames))
	for i, name := range policyNames {
		a := aggs[i]
		row := PolicyResult{
			Policy:         name,
			TotalJoules:    a.TotalJoules.Mean(),
			EnergyVariance: a.EnergyVariance.Mean(),
			PDR:            a.PDR.Mean(),
			AvgDelaySec:    a.AvgDelaySec.Mean(),
			Overhead:       a.NormalizedOverhead.Mean(),
		}
		rows[i] = row
		s.printf("%-10s %10.0f %10.0f %8.3f %9.3f %9.2f\n",
			row.Policy, row.TotalJoules, row.EnergyVariance, row.PDR, row.AvgDelaySec, row.Overhead)
	}
	s.printf("\n")
	return rows
}

// LevelResult is one row of the overhearing-level ablation.
type LevelResult struct {
	Scheme         scenario.Scheme
	TotalJoules    float64
	PDR            float64
	Overhead       float64
	EnergyPerBit   float64
	EnergyVariance float64
}

var levelSchemes = []scenario.Scheme{
	scenario.SchemePSMNoOverhear, scenario.SchemePSM, scenario.SchemeRcast,
}

// AblationLevels compares the Fig. 2 overhearing taxonomy end to end:
// no overhearing (naive PSM), unconditional overhearing (unmodified PSM),
// and randomized overhearing (Rcast).
func (s *Suite) AblationLevels() ([]LevelResult, error) {
	return generate(s, (*Suite).levelCells, (*Suite).levels)
}

func (s *Suite) levelCells() []scenario.Config {
	return s.schemeCells(levelSchemes, s.p.LowRate, false)
}

func (s *Suite) levels(aggs []*scenario.Aggregate) []LevelResult {
	s.printf("== Ablation A2: no / unconditional / randomized overhearing (rate=%.1f, mobile) ==\n", s.p.LowRate)
	s.printf("%-16s %10s %8s %9s %10s %10s\n", "scheme", "energy(J)", "PDR", "overhead", "EPB", "varJ")
	rows := make([]LevelResult, len(levelSchemes))
	for i, sch := range levelSchemes {
		a := aggs[i]
		row := LevelResult{
			Scheme:         sch,
			TotalJoules:    a.TotalJoules.Mean(),
			PDR:            a.PDR.Mean(),
			Overhead:       a.NormalizedOverhead.Mean(),
			EnergyPerBit:   a.EnergyPerBit.Mean(),
			EnergyVariance: a.EnergyVariance.Mean(),
		}
		rows[i] = row
		s.printf("%-16s %10.0f %8.3f %9.2f %10.2e %10.0f\n",
			sch, row.TotalJoules, row.PDR, row.Overhead, row.EnergyPerBit, row.EnergyVariance)
	}
	s.printf("\n")
	return rows
}

// GossipResult is one row of the broadcast-Rcast ablation.
type GossipResult struct {
	Gossip   bool
	PDR      float64
	RREQTx   float64 // mean RREQ transmissions per replication
	Overhead float64
}

// AblationGossip compares plain RREQ flooding against the §5 extension of
// Rcast-ing broadcasts (probabilistic rebroadcast damping) on the Rcast
// stack at the high-rate mobile point, where discoveries are most frequent.
func (s *Suite) AblationGossip() ([]GossipResult, error) {
	return generate(s, (*Suite).gossipCells, (*Suite).gossip)
}

// gossipCells are plain Rcast, then Rcast with gossip fanout 3.
func (s *Suite) gossipCells() []scenario.Config {
	cells := []scenario.Config{
		s.cell(scenario.SchemeRcast, s.p.HighRate, false),
		s.cell(scenario.SchemeRcast, s.p.HighRate, false),
	}
	cells[1].GossipFanout = 3
	return cells
}

func (s *Suite) gossip(aggs []*scenario.Aggregate) []GossipResult {
	s.printf("== Ablation A3: broadcast Rcast (RREQ rebroadcast damping, rate=%.1f, mobile) ==\n", s.p.HighRate)
	s.printf("%-8s %8s %12s %9s\n", "gossip", "PDR", "RREQ tx", "overhead")
	var rows []GossipResult
	for i, gossip := range []bool{false, true} {
		a := aggs[i]
		var rreq float64
		for _, r := range a.Results {
			rreq += float64(r.ControlByClass[core.ClassRREQ])
		}
		row := GossipResult{
			Gossip:   gossip,
			PDR:      a.PDR.Mean(),
			RREQTx:   rreq / float64(len(a.Results)),
			Overhead: a.NormalizedOverhead.Mean(),
		}
		rows = append(rows, row)
		s.printf("%-8v %8.3f %12.0f %9.2f\n", gossip, row.PDR, row.RREQTx, row.Overhead)
	}
	s.printf("\n")
	return rows
}
