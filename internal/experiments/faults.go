package experiments

import (
	"rcast/internal/fault"
	"rcast/internal/scenario"
)

// FaultResult is one row of the fault-sweep ablation.
type FaultResult struct {
	Variant     string
	Scheme      scenario.Scheme
	PDR         float64
	TotalJoules float64
	AvgDelaySec float64
	Crashes     float64 // mean node crashes per replication
	Flushed     float64 // mean packets flushed from crashing buffers
	FaultLost   float64 // mean frames vanished by the burst-loss channel
}

type faultVariant struct {
	label string
	plan  *fault.Plan
}

// faultVariants returns the A8 grid: each fault class alone, then crashes
// and burst loss together. Plans derive from the shared presets so the
// table tracks the CLI's -faults vocabulary.
func faultVariants() []faultVariant {
	crash, loss := preset("crash"), preset("loss")
	both := &fault.Plan{
		CrashFraction: crash.CrashFraction,
		Downtime:      crash.Downtime,
		Loss:          loss.Loss,
	}
	return []faultVariant{
		{label: "none", plan: nil},
		{label: "crash", plan: crash},
		{label: "burst-loss", plan: loss},
		{label: "crash+loss", plan: both},
	}
}

// preset resolves a built-in fault preset. The names are fixed in this
// package, so a missing one is a programming error.
func preset(name string) *fault.Plan {
	plan, err := fault.Preset(name)
	if err != nil {
		panic(err)
	}
	return plan
}

var faultSchemes = []scenario.Scheme{
	scenario.SchemeAlwaysOn, scenario.SchemePSM,
	scenario.SchemeODPM, scenario.SchemeRcast,
}

// AblationFaults stresses every scheme of the paper's figures (plus
// unmodified PSM) under the fault-injection presets: a fifth of the nodes
// power-cycling mid-run, Gilbert–Elliott burst loss on every link, and the
// two combined. The question is robustness, not raw performance: does
// Rcast's randomized overhearing degrade gracefully when the network
// misbehaves, or does it amplify faults that plain PSM would absorb?
func (s *Suite) AblationFaults() ([]FaultResult, error) {
	return generate(s, (*Suite).faultCells, (*Suite).faultsReport)
}

// faultCells are fault variant × scheme; each variant's plan replaces the
// suite's own.
func (s *Suite) faultCells() []scenario.Config {
	var cells []scenario.Config
	for _, v := range faultVariants() {
		for _, cfg := range s.schemeCells(faultSchemes, s.p.LowRate, false) {
			cfg.Faults = v.plan
			cells = append(cells, cfg)
		}
	}
	return cells
}

func (s *Suite) faultsReport(aggs []*scenario.Aggregate) []FaultResult {
	s.printf("== Ablation A8: fault injection (rate=%.1f, mobile) ==\n", s.p.LowRate)
	s.printf("%-12s %-8s %8s %10s %9s %9s %9s %10s\n",
		"faults", "scheme", "PDR", "energy(J)", "delay(s)", "crashes", "flushed", "faultLost")
	var rows []FaultResult
	for _, v := range faultVariants() {
		for _, sch := range faultSchemes {
			a := aggs[len(rows)]
			var crashes, flushed, faultLost float64
			for _, r := range a.Results {
				crashes += float64(r.NodeCrashes)
				flushed += float64(r.CrashFlushedPackets)
				faultLost += float64(r.Channel.FaultLost)
			}
			n := float64(len(a.Results))
			row := FaultResult{
				Variant:     v.label,
				Scheme:      sch,
				PDR:         a.PDR.Mean(),
				TotalJoules: a.TotalJoules.Mean(),
				AvgDelaySec: a.AvgDelaySec.Mean(),
				Crashes:     crashes / n,
				Flushed:     flushed / n,
				FaultLost:   faultLost / n,
			}
			rows = append(rows, row)
			s.printf("%-12s %-8s %8.3f %10.0f %9.3f %9.1f %9.1f %10.0f\n",
				row.Variant, sch, row.PDR, row.TotalJoules, row.AvgDelaySec,
				row.Crashes, row.Flushed, row.FaultLost)
		}
	}
	s.printf("\n")
	return rows
}
