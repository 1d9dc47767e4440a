package rcast_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"rcast"
)

// smallConfig is a fast public-API scenario.
func smallConfig(scheme rcast.Scheme) rcast.Config {
	cfg := rcast.PaperDefaults()
	cfg.Scheme = scheme
	cfg.Nodes = 25
	cfg.FieldW = 750
	cfg.Connections = 5
	cfg.Duration = 40 * rcast.Second
	cfg.Pause = 20 * rcast.Second
	return cfg
}

func TestPublicRunRoundTrip(t *testing.T) {
	res, err := rcast.Run(smallConfig(rcast.SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	if res.Originated == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic flowed: %+v", res)
	}
	if res.PDR <= 0 || res.PDR > 1 {
		t.Fatalf("PDR = %v", res.PDR)
	}
	if len(res.PerNodeJoules) != 25 {
		t.Fatalf("PerNodeJoules len = %d", len(res.PerNodeJoules))
	}
}

func TestPublicReplications(t *testing.T) {
	agg, err := rcast.RunReplications(smallConfig(rcast.SchemeODPM), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Results) != 2 || agg.PDR.N() != 2 {
		t.Fatalf("aggregate incomplete: %d results", len(agg.Results))
	}
}

func TestPublicSchemesAndParsing(t *testing.T) {
	if len(rcast.Schemes()) != 5 {
		t.Fatalf("Schemes() = %v", rcast.Schemes())
	}
	s, err := rcast.ParseScheme("Rcast")
	if err != nil || s != rcast.SchemeRcast {
		t.Fatalf("ParseScheme = %v, %v", s, err)
	}
	if _, err := rcast.ParseScheme("bogus"); err == nil {
		t.Fatal("ParseScheme accepted junk")
	}
}

func TestPublicTimeHelpers(t *testing.T) {
	if rcast.Seconds(1.5) != 1500*rcast.Millisecond {
		t.Fatal("Seconds conversion broken")
	}
	if rcast.Second != 1000*rcast.Millisecond || rcast.Millisecond != 1000*rcast.Microsecond {
		t.Fatal("duration constants broken")
	}
}

// alwaysPolicy is a user-defined policy exercising the public Policy
// surface: it always overhears (equivalent to unconditional).
type alwaysPolicy struct{}

func (alwaysPolicy) AdvertiseLevel(rcast.Class) rcast.Level { return rcast.LevelUnconditional }
func (alwaysPolicy) ShouldOverhear(*rand.Rand, rcast.Level, rcast.ListenContext) bool {
	return true
}
func (alwaysPolicy) Name() string { return "always" }

func TestPublicCustomPolicy(t *testing.T) {
	base, err := rcast.Run(smallConfig(rcast.SchemeRcast))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(rcast.SchemeRcast)
	cfg.Policy = alwaysPolicy{}
	greedy, err := rcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.TotalJoules <= base.TotalJoules {
		t.Fatalf("always-overhear policy (%.0f J) should cost more than Rcast (%.0f J)",
			greedy.TotalJoules, base.TotalJoules)
	}
}

func TestPublicBuiltinPolicies(t *testing.T) {
	policies := []rcast.Policy{
		rcast.PolicyRcast, rcast.PolicyUnconditional, rcast.PolicyNone,
		rcast.PolicySenderID, rcast.PolicyBattery, rcast.PolicyMobility, rcast.PolicyCombined,
	}
	seen := make(map[string]bool)
	for _, p := range policies {
		if p == nil || p.Name() == "" || seen[p.Name()] {
			t.Fatalf("bad policy export %v", p)
		}
		seen[p.Name()] = true
	}
	if rcast.PolicyRcast.AdvertiseLevel(rcast.ClassRERR) != rcast.LevelUnconditional {
		t.Fatal("re-exported levels/classes disagree")
	}
}

func TestPublicPolicyRegistry(t *testing.T) {
	names := rcast.PolicyNames()
	if len(names) == 0 {
		t.Fatal("no registered policy names")
	}
	for _, name := range names {
		p, err := rcast.ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ParsePolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := rcast.ParsePolicy("fixed-0.50"); err == nil {
		t.Fatal("unregistered policy name accepted")
	}
}

func TestPublicFaultPresets(t *testing.T) {
	names := rcast.FaultPresetNames()
	if len(names) == 0 {
		t.Fatal("no fault presets")
	}
	for _, name := range names {
		if plan, err := rcast.FaultPreset(name); err != nil || plan == nil {
			t.Fatalf("FaultPreset(%q) = %v, %v", name, plan, err)
		}
	}
	if plan, err := rcast.FaultPreset(""); err != nil || plan != nil {
		t.Fatalf("empty preset = %v, %v; want nil, nil", plan, err)
	}
	if _, err := rcast.FaultPreset("warp"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPublicRunContextCancel(t *testing.T) {
	cfg := smallConfig(rcast.SchemeRcast)
	cfg.Duration = 3600 * rcast.Second
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := rcast.RunContext(ctx, cfg)
	if res != nil || err == nil {
		t.Fatalf("canceled run returned res=%v err=%v", res, err)
	}
	if !errors.Is(err, rcast.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not expose ErrCanceled + context.Canceled", err)
	}
}

func TestPublicRunReplicationsContext(t *testing.T) {
	cfg := smallConfig(rcast.SchemeODPM)
	want, err := rcast.RunReplications(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rcast.RunReplicationsContext(context.Background(), cfg, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.PDR.Mean() != want.PDR.Mean() || got.TotalJoules.Mean() != want.TotalJoules.Mean() {
		t.Fatal("context path diverges from RunReplications")
	}
}

// TestPublicTracing drives the trace surface through the public API: a
// writer-backed run streams NDJSON that parses back, a ring and a
// recorder capture the same run without changing its results, and the
// traced results match an untraced run of the identical config.
func TestPublicTracing(t *testing.T) {
	cfg := smallConfig(rcast.SchemeRcast)
	plain, err := rcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ring := rcast.NewTraceRing(64)
	rec := rcast.NewTraceRecorder()
	cfg.Trace = rcast.TraceMulti{rcast.NewTraceWriter(&buf), ring, rec}
	traced, err := rcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Delivered != plain.Delivered || traced.TotalJoules != plain.TotalJoules {
		t.Fatalf("tracing perturbed the run: %+v vs %+v", traced, plain)
	}

	evs, err := rcast.ReadTraceEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || len(evs) != len(rec.Events()) {
		t.Fatalf("writer carried %d events, recorder %d", len(evs), len(rec.Events()))
	}
	if ring.Total() != uint64(len(evs)) {
		t.Fatalf("ring saw %d events, writer %d", ring.Total(), len(evs))
	}
	if got := len(ring.Events()); got != 64 {
		t.Fatalf("ring retained %d events, want its capacity 64", got)
	}
}

func TestPublicReplay(t *testing.T) {
	cfg := smallConfig(rcast.SchemeRcast)
	rec := rcast.NewTraceRecorder()
	cfg.Trace = rec
	orig, err := rcast.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	replayCfg := smallConfig(rcast.SchemeRcast)
	res, replayed, err := rcast.Replay(replayCfg, rec.Events())
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(replayed) != len(rec.Events()) {
		t.Fatalf("replayed %d events, recorded %d", len(replayed), len(rec.Events()))
	}
	if res.Delivered != orig.Delivered || res.TotalJoules != orig.TotalJoules {
		t.Fatalf("replay did not reproduce the run: %+v vs %+v", res, orig)
	}

	agg := rcast.AggregateResults([]*rcast.Result{res})
	if agg.PDR.Mean() != res.PDR {
		t.Fatalf("aggregate of one result: mean PDR %v, PDR %v", agg.PDR.Mean(), res.PDR)
	}

	// A truncated recording must be detected, not silently accepted.
	if _, _, err := rcast.Replay(replayCfg, rec.Events()[:len(rec.Events())/2]); err == nil {
		t.Fatal("replay of a truncated recording succeeded")
	}
}
