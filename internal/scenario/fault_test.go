package scenario

import (
	"context"
	"reflect"
	"testing"

	"rcast/internal/fault"
	"rcast/internal/sim"
)

// mustPreset resolves a named fault preset or fails the test.
func mustPreset(t *testing.T, name string) *fault.Plan {
	t.Helper()
	p, err := fault.Preset(name)
	if err != nil {
		t.Fatalf("preset %q: %v", name, err)
	}
	return p
}

// faultBase is a small mobile scenario shared by the fault tests.
func faultBase() Config {
	cfg := PaperDefaults()
	cfg.Scheme = SchemePSM
	cfg.Nodes = 30
	cfg.Connections = 6
	cfg.Duration = 90 * sim.Second
	cfg.Audit = true
	return cfg
}

// TestFaultZeroPlanByteIdentical is the metamorphic oracle from DESIGN.md
// §9: a run with no fault plan, a run with a zero-valued plan, and a run
// with the "none" preset must be byte-identical — an inert plan installs
// no hooks, creates no RNG streams and schedules no events.
func TestFaultZeroPlanByteIdentical(t *testing.T) {
	base := faultBase()
	ref, err := Run(base)
	if err != nil {
		t.Fatalf("unfaulted run failed audit: %v", err)
	}
	if ref.Delivered == 0 {
		t.Fatal("oracle run delivered nothing; scenario too sparse to be meaningful")
	}

	zero := base
	zero.Faults = &fault.Plan{}
	rz, err := Run(zero)
	if err != nil {
		t.Fatalf("zero-plan run failed audit: %v", err)
	}
	assertResultsEqual(t, ref, rz)

	none := base
	none.Faults = mustPreset(t, "none")
	rn, err := Run(none)
	if err != nil {
		t.Fatalf("none-preset run failed audit: %v", err)
	}
	assertResultsEqual(t, ref, rn)
}

// TestFaultCrashAtInfinityEqualsNoCrash: a crash scheduled at or after the
// run's end must never fire — the run is byte-identical to an unfaulted
// one (second metamorphic oracle).
func TestFaultCrashAtInfinityEqualsNoCrash(t *testing.T) {
	base := faultBase()
	ref, err := Run(base)
	if err != nil {
		t.Fatalf("unfaulted run failed audit: %v", err)
	}

	inf := base
	inf.Faults = &fault.Plan{Crashes: []fault.Crash{
		{Node: 1, At: base.Duration},
		{Node: 2, At: base.Duration + 3600*sim.Second},
	}}
	ri, err := Run(inf)
	if err != nil {
		t.Fatalf("crash-at-infinity run failed audit: %v", err)
	}
	if ri.NodeCrashes != 0 {
		t.Errorf("crash-at-infinity run recorded %d crashes, want 0", ri.NodeCrashes)
	}
	assertResultsEqual(t, ref, ri)
}

// TestFaultCrashAuditedEverywhere runs the crash preset under the full
// invariant audit for every scheme and both routing protocols: packet and
// energy conservation must stay provable with nodes dying mid-flight,
// with crashed-node buffers reconciled as their own terminal class.
func TestFaultCrashAuditedEverywhere(t *testing.T) {
	for _, s := range Schemes() {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := faultBase()
			cfg.Scheme = s
			cfg.Faults = mustPreset(t, "crash")
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("audited crash run failed: %v", err)
			}
			if res.NodeCrashes == 0 {
				t.Error("crash preset produced no crashes")
			}
			if res.NodeRecoveries == 0 {
				t.Error("crash preset (30 s downtime) produced no recoveries")
			}
			if res.CrashFlushedPackets != res.Drops["node-crash"] {
				t.Errorf("crash-flushed packets %d != node-crash drops %d",
					res.CrashFlushedPackets, res.Drops["node-crash"])
			}
		})
	}
	t.Run("AODV", func(t *testing.T) {
		t.Parallel()
		cfg := faultBase()
		cfg.Routing = RoutingAODV
		cfg.Faults = mustPreset(t, "crash")
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("audited AODV crash run failed: %v", err)
		}
		if res.NodeCrashes == 0 {
			t.Error("crash preset produced no crashes")
		}
	})
}

// TestFaultBurstLossAudited drives the Gilbert–Elliott channel fault under
// audit; frames vanished by the loss model must show up in the channel
// stats and break nothing in the packet census.
func TestFaultBurstLossAudited(t *testing.T) {
	cfg := faultBase()
	cfg.Faults = mustPreset(t, "loss")
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("audited loss run failed: %v", err)
	}
	if res.Channel.FaultLost == 0 {
		t.Error("loss preset lost no frames")
	}
}

// TestFaultPartitionAudited splits the field for the middle of the run;
// the audit must stay clean and the displacement must cost deliveries
// relative to the unfaulted run only through normal routing failures.
func TestFaultPartitionAudited(t *testing.T) {
	cfg := faultBase()
	cfg.Faults = mustPreset(t, "partition")
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("audited partition run failed: %v", err)
	}
	if res.Originated == 0 {
		t.Fatal("partition run originated nothing")
	}
}

// TestFaultEverythingAudited piles all fault classes onto one audited run,
// for each routing protocol.
func TestFaultEverythingAudited(t *testing.T) {
	for _, routing := range []Routing{RoutingDSR, RoutingAODV} {
		routing := routing
		t.Run(routing.String(), func(t *testing.T) {
			t.Parallel()
			cfg := faultBase()
			cfg.Scheme = SchemeRcast
			cfg.Routing = routing
			cfg.BatteryJoules = 400 // battery jitter needs finite batteries
			cfg.Faults = mustPreset(t, "all")
			if _, err := Run(cfg); err != nil {
				t.Fatalf("audited all-faults run failed: %v", err)
			}
		})
	}
}

// TestFaultSeedDeterminism: the same config and seed must yield an
// identical Result across repeated runs — fault schedules, loss chains and
// partitions included.
func TestFaultSeedDeterminism(t *testing.T) {
	cfg := faultBase()
	cfg.Faults = mustPreset(t, "all")
	cfg.BatteryJoules = 400
	ref, err := Run(cfg)
	if err != nil {
		t.Fatalf("run 0 failed audit: %v", err)
	}
	for i := 1; i < 3; i++ {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("run %d failed audit: %v", i, err)
		}
		assertResultsEqual(t, ref, res)
	}
}

// TestFaultWorkerCountInvariance: replications of a faulted config must
// aggregate identically whether run serially or fanned across workers.
func TestFaultWorkerCountInvariance(t *testing.T) {
	cfg := faultBase()
	cfg.Duration = 45 * sim.Second
	cfg.Faults = mustPreset(t, "crash")
	serial, err := RunReplicationsContext(context.Background(), cfg, 3, 1)
	if err != nil {
		t.Fatalf("serial replications failed: %v", err)
	}
	parallel, err := RunReplicationsContext(context.Background(), cfg, 3, 3)
	if err != nil {
		t.Fatalf("parallel replications failed: %v", err)
	}
	for i := range serial.Results {
		assertResultsEqual(t, serial.Results[i], parallel.Results[i])
	}
	if !reflect.DeepEqual(serial.MeanSortedJoules, parallel.MeanSortedJoules) {
		t.Error("aggregates diverge between worker counts")
	}
}
