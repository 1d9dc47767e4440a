package experiments

import (
	"rcast/internal/scenario"
)

// TxPowerResult is one row of the A10 transmit-power ablation.
type TxPowerResult struct {
	TxPowerDBm   float64
	Variant      string // "PSM" (unconditional), "Rcast", "Rcast+gossip"
	PDR          float64
	TotalJoules  float64
	AvgDelaySec  float64
	EnergyPerBit float64
}

// txPowerDBs is the A10 power axis: two reduced-range points, the
// nominal 250 m paper setting, and one boosted point. -6 dB scales the
// two-ray-ground range by 10^(-6/40) ≈ 0.71 (≈177 m) while cutting
// radiated power to a quarter.
var txPowerDBs = []float64{-6, -3, 0, 3}

// txPowerVariants are the three broadcast/overhearing strategies A10
// crosses with the power axis: unconditional overhearing (PSM), the
// paper's randomized overhearing (Rcast), and gossip-style randomized
// broadcast layered on Rcast (GossipFanout 3, as in A3).
type txPowerVariant struct {
	name   string
	scheme scenario.Scheme
	gossip float64
}

var txPowerVariants = []txPowerVariant{
	{name: "PSM", scheme: scenario.SchemePSM},
	{name: "Rcast", scheme: scenario.SchemeRcast},
	{name: "Rcast+gossip", scheme: scenario.SchemeRcast, gossip: 3},
}

// AblationTxPower is A10: does reduced-range transmission power control
// (arXiv:1209.2550) beat overhearing suppression joule-for-joule? Each
// power level scales every radio's range by 10^(dB/40) and its radiated
// TX energy by 10^(dB/10); quieter radios spend less per transmission
// but need more hops (and lose more packets to the sparser topology),
// which is exactly the trade Rcast makes on the time axis instead. The
// verdict compares the best reduced-power PSM cell against full-power
// Rcast on delivered energy per bit.
func (s *Suite) AblationTxPower() ([]TxPowerResult, error) {
	return generate(s, (*Suite).txPowerCells, (*Suite).txPower)
}

// txPowerCells are power level × variant.
func (s *Suite) txPowerCells() []scenario.Config {
	var cells []scenario.Config
	for _, db := range txPowerDBs {
		for _, v := range txPowerVariants {
			cfg := s.cell(v.scheme, s.p.LowRate, false)
			cfg.TxPowerDBm = db
			cfg.GossipFanout = v.gossip
			cells = append(cells, cfg)
		}
	}
	return cells
}

func (s *Suite) txPower(aggs []*scenario.Aggregate) []TxPowerResult {
	s.printf("== Ablation A10: tx power x broadcast strategy (rate=%.1f, mobile) ==\n", s.p.LowRate)
	s.printf("%-8s %-14s %8s %10s %9s %12s\n",
		"power", "variant", "PDR", "energy(J)", "delay(s)", "J/bit")
	var rows []TxPowerResult
	bestReducedPSM := 0.0 // lowest J/bit among reduced-power PSM cells
	rcastNominal := 0.0   // full-power Rcast J/bit
	for _, db := range txPowerDBs {
		for _, v := range txPowerVariants {
			a := aggs[len(rows)]
			row := TxPowerResult{
				TxPowerDBm:   db,
				Variant:      v.name,
				PDR:          a.PDR.Mean(),
				TotalJoules:  a.TotalJoules.Mean(),
				AvgDelaySec:  a.AvgDelaySec.Mean(),
				EnergyPerBit: a.EnergyPerBit.Mean(),
			}
			if db < 0 && v.name == "PSM" && (bestReducedPSM == 0 || row.EnergyPerBit < bestReducedPSM) {
				bestReducedPSM = row.EnergyPerBit
			}
			if db == 0 && v.name == "Rcast" {
				rcastNominal = row.EnergyPerBit
			}
			s.printf("%+6.1fdB %-14s %8.3f %10.0f %9.3f %12.3e\n",
				db, row.Variant, row.PDR, row.TotalJoules, row.AvgDelaySec, row.EnergyPerBit)
			rows = append(rows, row)
		}
	}
	verdict := "overhearing suppression (Rcast) wins joule-for-joule"
	if bestReducedPSM > 0 && bestReducedPSM < rcastNominal {
		verdict = "reduced-range TX beats overhearing suppression joule-for-joule"
	}
	s.printf("best reduced-power PSM %.3e J/bit vs full-power Rcast %.3e J/bit — %s\n\n",
		bestReducedPSM, rcastNominal, verdict)
	return rows
}
