// Command perfsmoke is the CI performance gate: it runs three small fixed
// simulations and fails if any got more than 30% slower than its
// committed baseline. The 3-node cell (steady CBR traffic, static) gates
// the event kernel; the 400-node dense cell (the benchmark's dense_400 cell
// cut to 10 s) gates DSR route learning and the PHY grid at the size where
// they dominate. Its nodes start with a 30 s pause, so over 10 s the dense
// cell is static. Both run on the disk channel, so the third cell, a
// mobile 40-node cell shaped like the quick suite's A9 ablation (log-normal
// shadowing, Gauss–Markov mobility), gates the propagation models.
//
// Raw wall-clock time is useless as a committed number — CI machines
// differ by far more than any regression worth catching. Instead the gate
// normalizes: it times a fixed pure-Go calibration workload (the retained
// heap-oracle scheduler churning a large timer population) on the same
// machine in the same process, and scores each cell as
//
//	score = calibration_time / simulation_time
//
// The calibration and the 3-node cell are dominated by the same kind of
// work (pointer-heavy event dispatch), so that ratio is stable across
// machines while still moving one-for-one with real event-kernel
// regressions. The dense cell's work (route-cache scans, distance checks)
// resembles the calibration less, so its score tracks the machine less
// closely. Best-of-3 runs on both sides squeeze out scheduler noise.
//
// Usage:
//
//	go run ./tools/perfsmoke          # enforce against tools/perfsmoke/baseline.json
//	go run ./tools/perfsmoke -write   # regenerate every cell's baseline
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rcast"
	"rcast/internal/sim"
)

const (
	baselineFile = "tools/perfsmoke/baseline.json"
	// Burstable CI containers show ±20% score wobble run to run, so the
	// tolerance sits above the noise; any regression worth catching (a
	// scheduler or allocation-path slip) moves the score by far more.
	maxRegress = 0.30 // fail when score drops >30% below baseline
	runs       = 3    // best-of runs per side
)

type baseline struct {
	Scores  map[string]float64 `json:"scores"`  // per cell: calibration_time / simulation_time
	Comment string             `json:"comment"` // provenance note
}

// calibrate times the fixed reference workload: the heap-oracle scheduler
// scheduling and draining a pseudo-random timer population. This code is
// frozen (it exists as a differential oracle), so the measurement only
// moves when the machine does.
func calibrate() time.Duration {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < runs; r++ {
		start := time.Now()
		s := sim.NewHeapScheduler()
		fn := func() {}
		x := uint64(12345)
		for i := 0; i < 300_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			s.After(sim.Time(x%100_000), fn)
			if i%4 == 0 {
				s.Step()
			}
		}
		s.Run()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// cell is one gated simulation.
type cell struct {
	name string
	cfg  rcast.Config
}

func cells() []cell {
	small := rcast.PaperDefaults()
	small.Nodes = 3
	small.FieldW, small.FieldH = 200, 200
	small.Connections = 2
	small.PacketRate = 8
	small.Duration = rcast.Seconds(3600)
	small.Pause = rcast.Seconds(3600) // static cell
	small.Seed = 1

	// The dense_400 benchmark cell at paper density (3000×600 m, 250 m
	// range, 20 CBR connections at 0.4 pkt/s, waypoint up to 20 m/s with
	// 30 s pauses), cut from 60 s to 10 s.
	dense := rcast.PaperDefaults()
	dense.Nodes = 400
	dense.FieldW, dense.FieldH = 3000, 600
	dense.Pause = rcast.Seconds(30)
	dense.Duration = rcast.Seconds(10)
	dense.Seed = 1

	// One A9 cell of the quick suite: 40 mobile nodes on 900×300 m, 8 CBR
	// connections at 0.4 pkt/s for 150 s with 75 s pauses, under σ = 4 dB
	// shadowing and Gauss–Markov mobility.
	a9 := rcast.PaperDefaults()
	a9.Nodes = 40
	a9.FieldW, a9.FieldH = 900, 300
	a9.Connections = 8
	a9.Duration = rcast.Seconds(150)
	a9.Pause = rcast.Seconds(75)
	a9.Channel, a9.ShadowSigmaDB = "shadowing", 4
	a9.Mobility = "gauss-markov"
	a9.Seed = 1

	return []cell{{"cell_3", small}, {"dense_400_10s", dense}, {"a9_shadowing_40", a9}}
}

// simulate times one cell, best of runs.
func simulate(cfg rcast.Config) (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for r := 0; r < runs; r++ {
		start := time.Now()
		if _, err := rcast.RunReplications(cfg, 1); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

func main() {
	write := flag.Bool("write", false, "regenerate "+baselineFile+" from the current run instead of comparing")
	flag.Parse()

	cal := calibrate()
	scores := make(map[string]float64)
	for _, c := range cells() {
		simT, err := simulate(c.cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfsmoke: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		scores[c.name] = cal.Seconds() / simT.Seconds()
		fmt.Printf("perfsmoke: %s: calibration %v, simulation %v, score %.3f\n",
			c.name, cal.Round(time.Microsecond), simT.Round(time.Microsecond), scores[c.name])
	}

	if *write {
		b := baseline{Scores: scores, Comment: "best-of-3 heap-oracle calibration vs each cell; regenerate with go run ./tools/perfsmoke -write"}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfsmoke:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(baselineFile, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfsmoke:", err)
			os.Exit(1)
		}
		fmt.Println("perfsmoke: wrote baseline scores")
		return
	}

	data, err := os.ReadFile(baselineFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfsmoke: no baseline — run with -write first:", err)
		os.Exit(1)
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		fmt.Fprintln(os.Stderr, "perfsmoke: bad baseline:", err)
		os.Exit(1)
	}
	failed := false
	for _, c := range cells() {
		base, ok := b.Scores[c.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfsmoke: %s: no baseline score — run with -write\n", c.name)
			failed = true
			continue
		}
		floor := base * (1 - maxRegress)
		if score := scores[c.name]; score < floor {
			fmt.Fprintf(os.Stderr, "perfsmoke: %s: FAIL — score %.3f is below floor %.3f (baseline %.3f, tolerance %d%%)\n",
				c.name, score, floor, base, int(maxRegress*100))
			failed = true
			continue
		}
		fmt.Printf("perfsmoke: %s: OK (baseline %.3f, floor %.3f)\n", c.name, base, floor)
	}
	if failed {
		os.Exit(1)
	}
}
