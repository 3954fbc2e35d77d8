package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"gangfm/internal/gang"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/sim"
)

// tracedRun is the per-layer pass: the run's ops with a span around every
// layer call and a CPU profile, then the first quarter of the ops again
// untraced (for the tracing overhead, host time per event and the Go
// runtime's allocation and GC counts), then the microbenchmarks.
func tracedRun(w *benchWorkload, seed uint64, ops int, out string, stderr io.Writer) (*result, error) {
	ref := newRefState()
	f, _, err := setupMedian(w, seed, ops, ref)
	if err != nil {
		return nil, err
	}
	budget := w.budget(ops)

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	traced := runLoop(f, w, seed, 0, ops, tr, ref, budget, stderr)
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	// The untraced comparison pass: the same ops again, or on rotation128
	// (where op i needs the machine ops 0..i-1 left) the next ones, which
	// have the same shape.
	k := max(ops/4, 10)
	first := 0
	if w.stateful {
		first = ops
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := runLoop(f, w, seed, first, k, nil, ref, budget, stderr)
	runtime.ReadMemStats(&m1)

	path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
	if err := tr.write(path, w.name, seed); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	self := tr.selfTimes()
	fmt.Fprintf(stderr, "perfbench: %s spans -> %s; self time per op:\n", w.name, path)
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(stderr, "  %-22s %9.3f ms\n", name, self[name]/float64(ops))
	}

	done := float64(traced.ran)
	c := traced.counters
	per := func(x uint64) float64 { return float64(x) / done }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	plainDone := float64(plain.ran)
	var tracedK, plainK float64
	for i := 0; i < min(k, len(traced.lat), len(plain.lat)); i++ {
		tracedK += traced.lat[i]
		plainK += plain.lat[i]
	}
	m := map[string]metric{
		"sim.events_per_op":          {per(c.events), "count"},
		"sim.host_ns_per_event":      {plain.wall * 1e9 / float64(plain.counters.events), "ns"},
		"sim.schedule_step_ns":       {scheduleStepNs(p16QueueDepth), "ns"},
		"lanai.halts_per_rotation":   {ratio(c.halts, c.rotations), "count"},
		"lanai.readys_per_rotation":  {ratio(c.readys, c.rotations), "count"},
		"myrinet.data_pkts_per_op":   {per(c.net.data), "count"},
		"myrinet.ctrl_pkts_per_op":   {per(c.net.ctrl), "count"},
		"myrinet.send_deliver_ns":    {sendDeliverNs(), "ns"},
		"fm.credit_stall_ratio":      {ratio(c.fmStalls, c.fmPkts), "ratio"},
		"fm.refills_per_op":          {per(c.net.refill), "count"},
		"core.switches_per_op":       {per(c.switches), "count"},
		"core.switch_cycles_mean":    {ratio(c.switchCycles, c.switches), "cycles"},
		"core.valid_pkts_per_switch": {ratio(c.validPkts, c.switches), "count"},
		"gang.place_remove_ns.c8":    {placeRemoveNs(8), "ns"},
		"gang.place_remove_ns.c128":  {placeRemoveNs(128), "ns"},
		"schedd.run_ms":              {ratio(uint64(c.scheddRunNs), c.scheddRuns) / 1e6, "ms"},
		"schedd.decisions_per_op":    {per(c.decisions), "count"},
		"schedd.backfills_per_op":    {per(c.backfills), "count"},
		"schedd.requeues_per_op":     {per(c.requeues), "count"},
		"parpar.rotations_per_op":    {per(c.rotations), "count"},
		"parpar.rejoins_per_op":      {per(c.rejoins), "count"},
		"parpar.new_ms":              {parparNewMs(w.machine()), "ms"},
		"schedeval.generate_ms":      {generateMs(), "ms"},
		"go.allocs_per_op":           {float64(m1.Mallocs-m0.Mallocs) / plainDone, "count"},
		"go.gc_cycles_per_op":        {float64(m1.NumGC-m0.NumGC) / plainDone, "count"},
		"trace.wall_ratio":           {tracedK / plainK, "ratio"},
	}
	for _, mod := range modules {
		m["cpu_share."+mod] = metric{shares[mod], "ratio"}
	}
	return &result{
		report: report{Correct: traced.wrong == 0 && plain.wrong == 0, Attempted: ops, Failed: traced.failed, Metrics: m},
		digest: traced.digest,
	}, nil
}

// p16QueueDepth is paper16's mean event-queue depth (measured by stepping
// one op and averaging Engine.Pending); the engine microbenchmark keeps
// its queue this deep.
const p16QueueDepth = 50

// reps is how many times each microbenchmark repeats; it reports the
// median repetition.
const reps = 5

func medianOf(fn func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// scheduleStepNs times one sim.Engine Schedule plus one Step with depth
// events pending.
func scheduleStepNs(depth int) float64 {
	const iters = 200_000
	delays := make([]sim.Time, 4096)
	rng := sim.NewRand(1)
	for i := range delays {
		delays[i] = sim.Time(1 + rng.Intn(1000))
	}
	nop := func() {}
	return medianOf(func() float64 {
		eng := sim.NewEngine()
		for i := 0; i < depth; i++ {
			eng.Schedule(delays[i%len(delays)], nop)
		}
		t := time.Now()
		for i := 0; i < iters; i++ {
			eng.Schedule(delays[i%len(delays)], nop)
			eng.Step()
		}
		return float64(time.Since(t).Nanoseconds()) / iters
	})
}

// sendDeliverNs times a 1536 B data packet through myrinet.Network, from
// Send to its delivery handler, in batches of 1024 across 16 nodes.
func sendDeliverNs() float64 {
	const nodes, batch, batches = 16, 1024, 16
	return medianOf(func() float64 {
		eng := sim.NewEngine()
		net := myrinet.New(eng, myrinet.DefaultConfig(nodes))
		delivered := 0
		for id := 0; id < nodes; id++ {
			net.Attach(myrinet.NodeID(id), myrinet.HandlerFunc(func(p *myrinet.Packet) {
				delivered++
				net.FreePacket(p)
			}))
		}
		t := time.Now()
		for b := 0; b < batches; b++ {
			for k := 0; k < batch; k++ {
				src := myrinet.NodeID(k % nodes)
				p := net.NewPacketFrom(src)
				p.Type, p.Src, p.Dst, p.PayloadLen = myrinet.Data, src, myrinet.NodeID((k+1+b)%nodes), 1536
				if p.Dst == src {
					p.Dst = (src + 1) % nodes
				}
				net.Send(p)
			}
			eng.Run()
		}
		if delivered != batch*batches {
			panic(fmt.Sprintf("myrinet microbenchmark delivered %d of %d packets", delivered, batch*batches))
		}
		return float64(time.Since(t).Nanoseconds()) / (batch * batches)
	})
}

// placeRemoveNs times one gang.Matrix Place plus Remove on a matrix of
// cols columns whose first rows are already half full.
func placeRemoveNs(cols int) float64 {
	const iters = 20_000
	sizes := []int{1, 2, max(cols/4, 1), cols / 2}
	return medianOf(func() float64 {
		m := gang.NewMatrix(cols, 8)
		for j := 0; j < 4; j++ {
			if _, err := m.Place(myrinet.JobID(j), cols/2); err != nil {
				panic(err)
			}
		}
		t := time.Now()
		for i := 0; i < iters; i++ {
			id := myrinet.JobID(100 + i)
			if _, err := m.Place(id, sizes[i%len(sizes)]); err != nil {
				panic(err)
			}
			if err := m.Remove(id); err != nil {
				panic(err)
			}
		}
		return float64(time.Since(t).Nanoseconds()) / iters
	})
}

// generateMs times schedeval.Generate of one churn8 trace.
func generateMs() float64 {
	const iters = 200
	return medianOf(func() float64 {
		t := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := churnConfig(uint64(2*i + 1)); err != nil {
				panic(err)
			}
		}
		return float64(time.Since(t).Nanoseconds()) / 1e6 / iters
	})
}

// parparNewMs times parpar.New of the workload's machine.
func parparNewMs(cfg parpar.Config) float64 {
	const iters = 10
	return medianOf(func() float64 {
		t := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := parpar.New(cfg); err != nil {
				panic(err)
			}
		}
		return float64(time.Since(t).Nanoseconds()) / 1e6 / iters
	})
}
