package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"gangfm/internal/experiments"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// BenchResult is one figure's performance measurement.
type BenchResult struct {
	Name        string  `json:"name"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	EventsPerS  float64 `json:"events_per_second"`
	Allocs      uint64  `json:"allocs"`
	AllocsPerEv float64 `json:"allocs_per_event"`
	// Analytic marks entries that evaluate closed-form formulas rather
	// than running the simulator: they fire no events, so the per-event
	// rates are undefined (reported as zero) and excluded from regression
	// comparisons.
	Analytic bool `json:"analytic,omitempty"`
}

// BenchBaseline pins the numbers measured on the pre-optimization tree
// (container/heap event queue, per-packet allocation, channel-fed sweep
// workers) so every BENCH_*.json carries its own point of comparison.
// Measured single-threaded on an Intel Xeon @ 2.10 GHz.
type BenchBaseline struct {
	Note              string  `json:"note"`
	EngineNsPerEvent  float64 `json:"engine_ns_per_event"`
	EngineAllocsPerEv float64 `json:"engine_allocs_per_event"`
	BandwidthPointNs  float64 `json:"bandwidth_point_ns"`
	BandwidthAllocs   float64 `json:"bandwidth_point_allocs"`
	AllFullSeconds    float64 `json:"all_full_seconds"`
	AllQuickSeconds   float64 `json:"all_quick_seconds"`
}

var benchBaseline = BenchBaseline{
	Note:              "pre-optimization tree: container/heap queue, per-packet allocation, fixed 4-worker sweeps; 1-core Xeon 2.10 GHz",
	EngineNsPerEvent:  69.35,
	EngineAllocsPerEv: 1,
	BandwidthPointNs:  6_735_988,
	BandwidthAllocs:   83_635,
	AllFullSeconds:    24.9,
	AllQuickSeconds:   1.6,
}

// ScalingResult is one leg of the parallel_scaling sweep: a fixed
// large-topology workload run unsharded, or sharded at a given worker
// count.
type ScalingResult struct {
	Name        string  `json:"name"`
	Shards      int     `json:"shards"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	EventsPerS  float64 `json:"events_per_second"`
	// Speedup is wall time of the unsharded serial leg divided by this
	// leg's wall time (1.0 for that leg itself), so the sharded legs'
	// coordination overhead counts against their speedup.
	Speedup float64 `json:"speedup"`
}

// BenchReport is the top-level BENCH_<date>.json document.
type BenchReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Quick      bool   `json:"quick"`
	// EngineNsPerEvent is a dedicated microbenchmark of the DES hot loop
	// (one self-rescheduling event), comparable to engine_ns_per_event in
	// the baseline block.
	EngineNsPerEvent float64 `json:"engine_ns_per_event"`
	// SwitchCycles is the mean steady-state three-stage switch cost of a
	// fixed 16-node workload, in virtual cycles — deterministic, so any
	// change between reports is a protocol change, not measurement noise.
	// SwitchCyclesRecoveryClean is the same probe with the self-healing
	// layer enabled and no faults; the two must be cycle-identical (the
	// recovery timers all cancel on the clean path) and bench exits
	// non-zero when they are not.
	SwitchCycles              float64       `json:"switch_cycles"`
	SwitchCyclesRecoveryClean float64       `json:"switch_cycles_recovery_clean"`
	Figures                   []BenchResult `json:"figures"`
	Total                     BenchResult   `json:"total"`
	// ParallelScaling sweeps the sharded engine's worker pool over a
	// large-topology bandwidth workload. Real speedup is bounded by
	// GOMAXPROCS (recorded above): on a single-core host every leg shares
	// one CPU and the sweep measures coordination overhead instead.
	ParallelScaling []ScalingResult `json:"parallel_scaling"`
	Baseline        BenchBaseline   `json:"baseline"`
}

// runBench executes every figure under wall-clock, event-count and
// allocation tracking and writes the report JSON.
func runBench(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	par := fs.Int("par", 0, "max concurrently simulated points (0 = one per CPU)")
	outPath := fs.String("o", "", "output path (default BENCH_<date>.json)")
	comparePath := fs.String("compare", "", "previous BENCH_*.json to diff against; exits non-zero on a >10% allocs/event regression")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gangsim bench [-quick] [-par N] [-o FILE] [-compare OLD.json] [-cpuprofile FILE] [-memprofile FILE]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gangsim bench: %v\n", err)
		return 1
	}
	defer stop()

	p := experiments.Params{Quick: *quick, Parallel: *par}
	rep := BenchReport{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
		Baseline:   benchBaseline,
	}
	rep.EngineNsPerEvent = engineNsPerEvent()
	fmt.Fprintf(out, "engine hot loop: %.2f ns/event\n", rep.EngineNsPerEvent)

	rep.SwitchCycles = switchCostCycles(false)
	rep.SwitchCyclesRecoveryClean = switchCostCycles(true)
	fmt.Fprintf(out, "switch cost: %.0f virtual cycles (recovery off), %.0f (recovery on, clean)\n",
		rep.SwitchCycles, rep.SwitchCyclesRecoveryClean)
	if rep.SwitchCycles != rep.SwitchCyclesRecoveryClean {
		fmt.Fprintf(out, "REGRESSION: recovery layer changed the clean-path switch cost\n")
		return 1
	}

	figures := []struct {
		name     string
		analytic bool
		run      func(experiments.Params)
	}{
		// credits evaluates the paper's closed-form credit formulas — no
		// simulation runs, so its event count is legitimately zero.
		{"credits", true, func(p experiments.Params) { experiments.Credits() }},
		{"fig5", false, func(p experiments.Params) { experiments.Fig5(p) }},
		{"fig6", false, func(p experiments.Params) { experiments.Fig6(p) }},
		{"fig7", false, func(p experiments.Params) { experiments.Fig7(p) }},
		{"fig9", false, func(p experiments.Params) { experiments.Fig9(p) }},
		{"overhead", false, func(p experiments.Params) { experiments.Overhead(p) }},
		{"schemes", false, func(p experiments.Params) { experiments.Schemes(p) }},
		{"dyncos", false, func(p experiments.Params) { experiments.Responsiveness(p) }},
		{"sched", false, func(p experiments.Params) { experiments.Sched(p) }},
		{"sched_churn", false, func(p experiments.Params) { experiments.Churn(p) }},
		{"sched_churn_crash", false, func(p experiments.Params) { experiments.ChurnCrash(p) }},
		{"sched_churn_repair", false, func(p experiments.Params) { experiments.ChurnRepair(p) }},
	}
	experiments.TakeFiredCount() // drain any prior count
	for _, f := range figures {
		r := measure(f.name, func() { f.run(p) })
		r.Analytic = f.analytic
		rep.Figures = append(rep.Figures, r)
		rep.Total.WallSeconds += r.WallSeconds
		rep.Total.Events += r.Events
		rep.Total.Allocs += r.Allocs
		if f.analytic {
			fmt.Fprintf(out, "%-10s %8.2fs  analytic (no simulated events)\n", r.Name, r.WallSeconds)
			continue
		}
		fmt.Fprintf(out, "%-10s %8.2fs  %12d events  %10.0f events/s  %6.2f allocs/event\n",
			r.Name, r.WallSeconds, r.Events, r.EventsPerS, r.AllocsPerEv)
	}
	rep.ParallelScaling = parallelScaling(*quick, out)

	rep.Total.Name = "total"
	if rep.Total.WallSeconds > 0 {
		rep.Total.EventsPerS = float64(rep.Total.Events) / rep.Total.WallSeconds
	}
	if rep.Total.Events > 0 {
		rep.Total.AllocsPerEv = float64(rep.Total.Allocs) / float64(rep.Total.Events)
	}
	fmt.Fprintf(out, "%-10s %8.2fs  %12d events  %10.0f events/s  %6.1f allocs/event\n",
		rep.Total.Name, rep.Total.WallSeconds, rep.Total.Events, rep.Total.EventsPerS, rep.Total.AllocsPerEv)

	path := *outPath
	if path == "" {
		path = "BENCH_" + rep.Date + ".json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "gangsim bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "gangsim bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "wrote %s\n", path)

	if *comparePath != "" {
		old, err := loadBenchReport(*comparePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gangsim bench: -compare: %v\n", err)
			return 1
		}
		if compareReports(out, old, &rep) {
			fmt.Fprintf(out, "REGRESSION: allocs/event grew more than 10%% versus %s\n", *comparePath)
			return 1
		}
	}
	return 0
}

// loadBenchReport reads a previously written BENCH_*.json.
func loadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// compareReports prints per-figure deltas (wall time, event rate,
// allocations per event) between two reports and reports whether any
// shared figure's allocs/event regressed by more than 10%. Wall time and
// event rate are hardware- and load-dependent, so they are informational;
// allocs/event is deterministic for a deterministic simulation and gates.
func compareReports(out io.Writer, old, cur *BenchReport) bool {
	prev := make(map[string]BenchResult, len(old.Figures))
	for _, f := range old.Figures {
		prev[f.Name] = f
	}
	pct := func(oldV, newV float64) string {
		if oldV == 0 {
			return "   n/a"
		}
		return fmt.Sprintf("%+5.1f%%", (newV-oldV)/oldV*100)
	}
	fmt.Fprintf(out, "comparison vs %s (quick=%v):\n", old.Date, old.Quick)
	fmt.Fprintf(out, "  %-10s %10s %12s %26s\n", "figure", "wall", "events/s", "allocs/event (old -> new)")
	regressed := false
	for _, f := range cur.Figures {
		o, ok := prev[f.Name]
		if !ok {
			fmt.Fprintf(out, "  %-10s (new figure, no baseline)\n", f.Name)
			continue
		}
		if f.Analytic || (f.Events == 0 && o.Events == 0) {
			fmt.Fprintf(out, "  %-10s %10s %12s %26s\n", f.Name,
				pct(o.WallSeconds, f.WallSeconds), "analytic", "-")
			continue
		}
		verdict := ""
		// Over 10% worse — with an absolute floor so counting noise on an
		// already ~zero-alloc figure (e.g. 0.001 -> 0.0012) cannot gate.
		if f.AllocsPerEv > o.AllocsPerEv*1.10 && f.AllocsPerEv-o.AllocsPerEv > 0.005 {
			verdict = "  REGRESSED"
			regressed = true
		}
		fmt.Fprintf(out, "  %-10s %10s %12s %12.4f -> %-8.4f%s\n", f.Name,
			pct(o.WallSeconds, f.WallSeconds),
			pct(o.EventsPerS, f.EventsPerS),
			o.AllocsPerEv, f.AllocsPerEv, verdict)
	}
	return regressed
}

// measure runs fn, attributing its wall time, simulation event count and
// heap allocations to one BenchResult.
func measure(name string, fn func()) BenchResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	r := BenchResult{
		Name:        name,
		WallSeconds: wall,
		Events:      experiments.TakeFiredCount(),
		Allocs:      after.Mallocs - before.Mallocs,
	}
	// Both per-event rates are undefined when nothing fired (analytic
	// entries): report zero rather than dividing by the event count.
	if wall > 0 && r.Events > 0 {
		r.EventsPerS = float64(r.Events) / wall
	}
	if r.Events > 0 {
		r.AllocsPerEv = float64(r.Allocs) / float64(r.Events)
	}
	return r
}

// parallelScaling runs a fig6-style pairwise-bandwidth workload on a
// large machine — the regime sharding exists for — unsharded, then sharded
// at 1/2/4/8 workers, and reports wall time per leg. The simulated work is
// identical in every leg (the equivalence tests prove the results are
// too), so the wall-time ratios isolate the engine's parallel efficiency.
func parallelScaling(quick bool, out io.Writer) []ScalingResult {
	// 512 nodes is the largest machine the modeled FM can drive: switched
	// credits are C0 = Br/p = 668/512 = 1 (stop-and-wait, alive); at 1024
	// peers the formula hits zero and communication wedges by design.
	nodes, msgs := 512, 24
	if quick {
		nodes, msgs = 128, 30
	}
	const shards = 16
	run := func(nShards, workers int) ScalingResult {
		cfg := parpar.DefaultConfig(nodes)
		// One slot: every pair job runs on its own column with no
		// rotation, so the machine is uniformly busy end to end.
		cfg.Slots = 1
		cfg.Quantum = 100_000_000
		// A SAN this size is a multi-stage fabric with a longer switch
		// traversal; the higher latency also widens the conservative
		// lookahead window, cutting barrier frequency.
		ncfg := myrinet.DefaultConfig(nodes)
		ncfg.SwitchLatency = 2000
		cfg.NetConfig = &ncfg
		cfg.Shards = nShards
		cfg.Workers = workers
		c, err := parpar.New(cfg)
		if err != nil {
			panic(err)
		}
		for j := 0; j < nodes/2; j++ {
			if _, err := c.Submit(workload.Bandwidth(fmt.Sprintf("pair%d", j), msgs, 1536)); err != nil {
				panic(err)
			}
		}
		start := time.Now()
		c.Run()
		wall := time.Since(start).Seconds()
		r := ScalingResult{Shards: nShards, Workers: workers, WallSeconds: wall, Events: c.Fired()}
		if wall > 0 {
			r.EventsPerS = float64(r.Events) / wall
		}
		return r
	}
	legs := []ScalingResult{run(1, 1)}
	legs[0].Name = "unsharded"
	for _, w := range []int{1, 2, 4, 8} {
		r := run(shards, w)
		r.Name = fmt.Sprintf("shards=%d workers=%d", shards, w)
		legs = append(legs, r)
	}
	ref := legs[0].WallSeconds
	for i := range legs {
		if legs[i].WallSeconds > 0 {
			legs[i].Speedup = ref / legs[i].WallSeconds
		}
	}
	fmt.Fprintf(out, "parallel_scaling: %d nodes, %d pair jobs x %d msgs (GOMAXPROCS=%d)\n",
		nodes, nodes/2, msgs, runtime.GOMAXPROCS(0))
	for _, r := range legs {
		fmt.Fprintf(out, "  %-22s %8.2fs  %12d events  %10.0f events/s  speedup %.2fx\n",
			r.Name, r.WallSeconds, r.Events, r.EventsPerS, r.Speedup)
	}
	return legs
}

// switchCostCycles measures the mean steady-state switch cost (virtual
// cycles) of a fixed 16-node two-job all-to-all workload, optionally with
// the self-healing layer enabled. The simulation is deterministic, so the
// recovery-on-but-clean number must equal the recovery-off number exactly.
func switchCostCycles(recovery bool) float64 {
	cfg := parpar.DefaultConfig(16)
	cfg.Slots = 2
	cfg.Quantum = 4_000_000
	if recovery {
		r := parpar.DefaultRecovery(cfg.Quantum)
		cfg.Recovery = &r
	}
	c, err := parpar.New(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := c.Submit(workload.AllToAll("a", 16, 40, 1536)); err != nil {
		panic(err)
	}
	if _, err := c.Submit(workload.AllToAll("b", 16, 40, 1536)); err != nil {
		panic(err)
	}
	c.Run()
	var sum sim.Time
	n := 0
	for _, hist := range c.SwitchHistory() {
		for _, s := range hist {
			if s.From >= 0 && s.To >= 0 { // steady-state switches only
				sum += s.Total()
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// engineNsPerEvent times the bare DES hot loop: a single self-rescheduling
// event, the same shape as BenchmarkEngineThroughput.
func engineNsPerEvent() float64 {
	const events = 2_000_000
	eng := sim.NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < events {
			eng.Schedule(1, step)
		}
	}
	eng.Schedule(1, step)
	start := time.Now()
	eng.Run()
	return float64(time.Since(start).Nanoseconds()) / events
}
