package main

import (
	"fmt"
	"math"
	"time"

	"gangfm/internal/core"
	"gangfm/internal/myrinet"
	"gangfm/internal/parpar"
	"gangfm/internal/schedd"
	"gangfm/internal/schedeval"
	"gangfm/internal/sim"
	"gangfm/internal/workload"
)

// benchWorkload is one benchmark workload: a seeded stream of ops of one shape.
type benchWorkload struct {
	name string
	// rate is the ops per second the workload ran at on the calibration
	// host (2-core x86-64 VM, Go 1.24); a run executes rate × --seconds
	// ops, so the work per run is fixed and wall_s compares across
	// commits.
	rate float64
	// stateful ops run in order on one machine (op i needs ops 0..i-1);
	// otherwise every op builds its own machine from its own seed.
	stateful bool
	// setup builds the fixture for ops ops and warms the simulator up
	// untimed, so lazy set-up and heap growth are paid before timing.
	setup func(seed uint64, ops int) (fixture, error)
	// machine is the parpar configuration of the workload's machine, for
	// the parpar.new_ms microbenchmark.
	machine func() parpar.Config
	// knownPanics are the starts of panic messages the current tree is
	// known to raise on this workload; an op that raises one is
	// incomplete, not wrong. Empty on the clean-path workloads, where
	// every panic is a wrong output.
	knownPanics []string
}

// ops is the number of ops a run of the given length executes. At least
// 100, so ten ops lie beyond the op_p90_ms point.
func (w *benchWorkload) ops(seconds int) int {
	return max(100, int(math.Round(w.rate*float64(seconds))))
}

// budget is how long a pass over ops may take before the rest are
// skipped.
func (w *benchWorkload) budget(ops int) time.Duration {
	return time.Duration(maxRunFactor * float64(ops) / w.rate * float64(time.Second))
}

// fixture runs ops. A nil tracer runs untraced.
type fixture interface {
	op(i int, tr *tracer) opResult
}

// opResult is one op's outcome: the digest of its simulated outputs, the
// layer counters it moved, and the first failed check.
type opResult struct {
	digest uint64
	c      counters
	err    error
}

var workloads = map[string]*benchWorkload{
	"paper16": {
		name:    "paper16",
		rate:    19.5,
		setup:   setupPaper16,
		machine: paper16Config,
	},
	"rotation128": {
		name:     "rotation128",
		rate:     30,
		stateful: true,
		setup:    setupRotation128,
		machine:  rotation128Config,
	},
	"churn8": {
		name:    "churn8",
		rate:    22,
		setup:   setupChurn8,
		machine: func() parpar.Config { return parpar.DefaultConfig(churnNodes) },
		// The open repair panic in ROADMAP.md: fm's reassembly of a
		// multi-fragment message after a node crash and repair meets a
		// fragment it does not expect. Endpoint.reassemble reports it
		// one of two ways, depending on whether the stale message had
		// already received a fragment.
		knownPanics: []string{"fm: fragment ", "fm: interleaved fragments "},
	},
}

// opSeed derives op i's seed from the workload seed (splitmix64).
func opSeed(seed uint64, i int) uint64 {
	z := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1
}

// warmOps is how many ops a stateless workload's set-up runs untimed, on
// inputs derived from workload seed 0 rather than the run's seed: the
// warm-up pays lazy set-up and heap growth before timing, and its size is
// the same in every run, so setup_s does not move with --seed.
const warmOps = 3

func warmUp(f fixture) {
	for i := 0; i < warmOps; i++ {
		safeOp(f, i, nil)
	}
}

// ---- paper16 ----------------------------------------------------------

// paper16 is the paper's own regime (§4.2): a fresh 16-node ParPar with a
// 2-slot gang matrix time-slicing two all-to-all jobs of 1536 B messages,
// so the receive buffers are loaded at every switch and the data path
// (myrinet, lanai, fm, core's buffer copy) does the work.
const (
	p16Nodes   = 16
	p16PerPeer = 110
	p16Size    = 1536
	p16Jobs    = 2
)

func paper16Config() parpar.Config {
	cfg := parpar.DefaultConfig(p16Nodes)
	cfg.Slots = 2
	cfg.Quantum = 4_000_000 // 20 ms: many rotations per op
	return cfg
}

type paper16 struct {
	seed  uint64
	seeds []uint64
}

func setupPaper16(seed uint64, ops int) (fixture, error) {
	warmUp(newPaper16(0, warmOps))
	return newPaper16(seed, ops), nil
}

func newPaper16(seed uint64, ops int) *paper16 {
	f := &paper16{seed: seed, seeds: make([]uint64, ops)}
	for i := range f.seeds {
		f.seeds[i] = opSeed(seed, i)
	}
	return f
}

func (f *paper16) op(i int, tr *tracer) opResult {
	s := f.seeds[i]
	cfg := paper16Config()
	cfg.Seed = s
	// A quarter of the ops use the full copy, the rest the valid-only
	// copy; the seed picks which quarter and each op's control-network
	// jitter (1–3 ms of daemon skew). A fixed share keeps op_p50_ms
	// inside the valid-only cluster and op_p90_ms inside the full-copy
	// one, instead of on the boundary between them.
	cfg.Mode = core.ValidOnly
	if (uint64(i)+f.seed)%4 == 0 {
		cfg.Mode = core.FullCopy
	}
	cfg.CtrlJitter = 200_000 + sim.Time((s>>8)%400_000)

	sp := tr.begin("parpar.New")
	c, err := parpar.New(cfg)
	tr.end(sp)
	if err != nil {
		return opResult{err: err}
	}
	var procs []*parpar.Proc
	jobs := make([]*parpar.Job, p16Jobs)
	for j := range jobs {
		spec := capture(workload.AllToAll(fmt.Sprintf("a2a%d", j), p16Nodes, p16PerPeer, p16Size), &procs)
		sp = tr.begin("parpar.Submit")
		jobs[j], err = c.Submit(spec)
		tr.end(sp)
		if err != nil {
			return opResult{err: err}
		}
	}
	sp = tr.begin("parpar.Run")
	c.Run()
	tr.end(sp)

	sp = tr.begin("check")
	defer tr.end(sp)
	h := uint64(fnvOffset)
	h = mix(h, uint64(c.Eng.Now()))
	h = mix(h, c.Fired())
	want := p16PerPeer * (p16Nodes - 1)
	for _, job := range jobs {
		if job.State() != parpar.JobDone {
			return opResult{err: fmt.Errorf("job %s ended %v, want done", job.Spec.Name, job.State())}
		}
		rs, err := workload.ExtractAllToAll(job)
		if err != nil {
			return opResult{err: err}
		}
		for _, r := range rs {
			if r.Sent != want || r.Received != want {
				return opResult{err: fmt.Errorf("job %s rank %d sent %d received %d, want %d each",
					job.Spec.Name, r.Rank, r.Sent, r.Received, want)}
			}
			h = mix(h, uint64(r.End-r.Start))
		}
		h = mix(h, uint64(job.SyncTime))
		h = mix(h, uint64(job.DoneTime))
	}
	var fc counters
	if err := fmCounters(procs, p16Jobs*p16Nodes*want, &fc); err != nil {
		return opResult{err: err}
	}
	if err := checkNoDrops(c); err != nil {
		return opResult{err: err}
	}
	var cc counters
	h = clusterCounters(c, h, &cc)
	cc.add(fc)
	return opResult{digest: h, c: cc}
}

// capture wraps a job spec so the benchmark keeps every rank's Proc and
// can read its FM endpoint counters after the run.
func capture(spec parpar.JobSpec, procs *[]*parpar.Proc) parpar.JobSpec {
	inner := spec.NewProgram
	spec.NewProgram = func(rank int) parpar.Program {
		prog := inner(rank)
		return parpar.ProgramFunc(func(p *parpar.Proc) {
			*procs = append(*procs, p)
			prog.Start(p)
		})
	}
	return spec
}

// fmCounters checks FM's byte and message conservation over procs and
// adds their credit counters.
func fmCounters(procs []*parpar.Proc, wantMsgs int, c *counters) error {
	var sent, recv, msgsSent, msgsRecv uint64
	for _, p := range procs {
		st := p.EP.Stats()
		sent += st.PayloadBytesSent
		recv += st.PayloadBytesRecv
		msgsSent += st.MessagesSent
		msgsRecv += st.MessagesRecvd
		c.fmPkts += st.PacketsSent
		c.fmStalls += st.CreditStalls
	}
	if sent != recv {
		return fmt.Errorf("fm: %d payload bytes sent, %d received", sent, recv)
	}
	if msgsSent != uint64(wantMsgs) || msgsRecv != uint64(wantMsgs) {
		return fmt.Errorf("fm: %d messages sent, %d received, want %d", msgsSent, msgsRecv, wantMsgs)
	}
	return nil
}

// checkNoDrops fails a clean-path run that dropped any packet.
func checkNoDrops(c *parpar.Cluster) error {
	for t, n := range c.Net.Stats().Dropped {
		if n != 0 {
			return fmt.Errorf("myrinet: %d %v packets dropped on the clean path", n, t)
		}
	}
	for _, node := range c.Nodes() {
		for reason, n := range node.NIC.Stats().Drops {
			if n != 0 {
				return fmt.Errorf("lanai: node %d dropped %d packets (%v) on the clean path", node.ID, n, reason)
			}
		}
	}
	return nil
}

// ---- rotation128 ------------------------------------------------------

// rotation128 is the flush protocol at scale with no data traffic: a
// 128-node machine time-slicing two machine-wide compute gangs. Every op
// is one whole gang rotation — the halt broadcast (every card tells every
// other card it stopped sending), the context copy, and the ready
// broadcast — so lanai's phase tracking and the control packets do the
// work. 128 nodes keeps an op near 40 ms; a rotation costs about 0.4 s at
// 256 nodes and 2.6 s at 512, too few ops per run to be steady.
const rotNodes = 128

func rotation128Config() parpar.Config {
	cfg := parpar.DefaultConfig(rotNodes)
	cfg.Slots = 2
	return cfg
}

type rotation128 struct {
	c       *parpar.Cluster
	jobs    []*parpar.Job
	quantum sim.Time
	// phase is the virtual time halfway between two rotation starts: op
	// i runs the machine to phase + (i+1)·quantum, which covers exactly
	// one rotation start and its completion.
	phase sim.Time
	prev  snapshot
}

func setupRotation128(seed uint64, _ int) (fixture, error) {
	cfg := rotation128Config()
	cfg.Seed = seed
	c, err := parpar.New(cfg)
	if err != nil {
		return nil, err
	}
	f := &rotation128{c: c, quantum: cfg.Quantum}
	for g := 0; g < 2; g++ {
		// Effectively endless: the gangs outlive any run.
		job, err := c.Submit(workload.Compute(fmt.Sprintf("gang%d", g), rotNodes, math.MaxInt64/4))
		if err != nil {
			return nil, err
		}
		f.jobs = append(f.jobs, job)
	}
	// Load: both gangs past their all-up synchronization and each switched
	// in once; then stop exactly at the start of the next rotation to
	// learn its phase.
	for f.jobs[0].State() != parpar.JobRunning || f.jobs[1].State() != parpar.JobRunning || c.Master().Epoch() < 2 {
		if !c.Eng.Step() {
			return nil, fmt.Errorf("rotation128: machine went idle while loading")
		}
	}
	for e := c.Master().Epoch(); c.Master().Epoch() == e; {
		if !c.Eng.Step() {
			return nil, fmt.Errorf("rotation128: machine went idle before rotating")
		}
	}
	f.phase = c.Eng.Now() + f.quantum/2
	c.RunUntil(f.phase) // the warm-up rotation
	f.prev = f.snap()
	return f, nil
}

// snapshot is the machine's cumulative counters at an op boundary.
type snapshot struct {
	epoch  uint64
	fired  uint64
	hist   []int
	net    netTotals
	halts  uint64
	readys uint64
}

func (f *rotation128) snap() snapshot {
	s := snapshot{epoch: f.c.Master().Epoch(), fired: f.c.Fired(), net: netStats(f.c)}
	for _, h := range f.c.SwitchHistory() {
		s.hist = append(s.hist, len(h))
	}
	for _, n := range f.c.Nodes() {
		st := n.NIC.Stats()
		s.halts += st.HaltsSent
		s.readys += st.ReadysSent
	}
	return s
}

func (f *rotation128) op(i int, tr *tracer) opResult {
	sp := tr.begin("parpar.RunUntil")
	f.c.RunUntil(f.phase + sim.Time(i+1)*f.quantum)
	tr.end(sp)

	sp = tr.begin("check")
	defer tr.end(sp)
	prev := f.prev
	cur := f.snap()
	f.prev = cur
	if cur.epoch != prev.epoch+1 {
		return opResult{err: fmt.Errorf("rotation advanced the epoch by %d, want 1", cur.epoch-prev.epoch)}
	}
	for _, job := range f.jobs {
		if job.State() != parpar.JobRunning {
			return opResult{err: fmt.Errorf("gang %s is %v mid-run", job.Spec.Name, job.State())}
		}
	}
	if err := checkNoDrops(f.c); err != nil {
		return opResult{err: err}
	}
	h := mix(fnvOffset, uint64(f.c.Eng.Now()))
	h = mix(h, cur.fired-prev.fired)
	var c counters
	for n, hist := range f.c.SwitchHistory() {
		if len(hist) != prev.hist[n]+1 {
			return opResult{err: fmt.Errorf("node %d recorded %d switches in one rotation, want 1", n, len(hist)-prev.hist[n])}
		}
		s := hist[len(hist)-1]
		if s.Epoch != cur.epoch {
			return opResult{err: fmt.Errorf("node %d switched in epoch %d, want %d", n, s.Epoch, cur.epoch)}
		}
		h = mixSwitch(h, s)
		c.addSwitch(s)
	}
	c.events = cur.fired - prev.fired
	c.rotations = cur.epoch - prev.epoch
	c.halts = cur.halts - prev.halts
	c.readys = cur.readys - prev.readys
	c.net = cur.net.sub(prev.net)
	return opResult{digest: h, c: c}
}

// ---- churn8 -----------------------------------------------------------

// churn8 is the online scheduler under failures: one schedd.Showdown
// (gang, batch and fractional serving) per op, on a seeded 28-job churn
// trace on 8 nodes with kills, resizes and deadlines, fail-stop crashes of
// about 35% of the nodes and repairs of 75% of those. It is the only
// workload that exercises schedd admission and backfill, gang.Matrix
// kill and revive, and parpar heartbeat, eviction and rejoin.
const (
	churnNodes = 8
	churnJobs  = 28
)

type churn8 struct {
	cfgs []schedd.Config
}

// churnConfig is op seed s's showdown input: the job trace, then crashes
// and repairs on their own streams derived from s.
func churnConfig(s uint64) (schedd.Config, error) {
	gen := schedeval.DefaultGenConfig(churnNodes)
	gen.Seed = s
	gen.Jobs = churnJobs
	gen.KillFraction = 0.15
	gen.ResizeFraction = 0.15
	gen.DeadlineFraction = 0.25
	trace, err := schedeval.Generate(gen)
	if err != nil {
		return schedd.Config{}, err
	}
	var lastArrive sim.Time
	for _, tj := range trace {
		lastArrive = max(lastArrive, tj.Arrive)
	}
	crashes, err := schedeval.GenCrashes(s>>1, churnNodes, 0.35, lastArrive)
	if err != nil {
		return schedd.Config{}, err
	}
	repairs, err := schedeval.GenRepairs(s>>2, crashes, 0.75, lastArrive/4)
	if err != nil {
		return schedd.Config{}, err
	}
	cfg := schedd.DefaultConfig(churnNodes)
	// The horizon is 2000 quanta past the last arrival: 40 s of virtual
	// time, over a hundred times a completed showdown's length. A wedged
	// op still fails, but does not spin on heartbeats for the default
	// 10000 quanta first; those few ops cost up to ten times the median
	// op and made wall_s swing with how many a seed drew. On the 300 ops
	// of seed 31 both horizons fail the same 28 ops.
	cfg.Horizon = lastArrive + 2000*cfg.Quantum
	cfg.Trace = trace
	cfg.Crashes = crashes
	cfg.Repairs = repairs
	cfg.AdaptiveEstimate = true
	cfg.Seed = s
	return cfg, nil
}

func setupChurn8(seed uint64, ops int) (fixture, error) {
	warm, err := newChurn8(0, warmOps)
	if err != nil {
		return nil, err
	}
	warmUp(warm)
	return newChurn8(seed, ops)
}

func newChurn8(seed uint64, ops int) (*churn8, error) {
	f := &churn8{cfgs: make([]schedd.Config, ops)}
	for i := range f.cfgs {
		cfg, err := churnConfig(opSeed(seed, i))
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		f.cfgs[i] = cfg
	}
	return f, nil
}

func (f *churn8) op(i int, tr *tracer) opResult {
	var c counters
	rs, h, err := showdown(f.cfgs[i], tr, &c)
	if err != nil {
		return opResult{err: err}
	}
	sp := tr.begin("check")
	defer tr.end(sp)
	var unfinished string
	for _, r := range rs {
		if r.Censored != 0 && unfinished == "" {
			unfinished = fmt.Sprintf("%s left %d jobs unfinished at the horizon", r.Mode, r.Censored)
		}
		if r.Mode != "fractional" {
			// Each daemon logs a job's end exactly once, when it
			// happens; the result's counts must agree with its log.
			for _, v := range []struct {
				verb schedd.Verb
				n    int
			}{{schedd.VerbDone, r.Finished}, {schedd.VerbKill, r.Killed}, {schedd.VerbGaveup, r.Evicted}} {
				if logged := r.Log.Count(v.verb); logged != v.n {
					return opResult{err: fmt.Errorf("%s logged %d %v decisions for %d such jobs", r.Mode, logged, v.verb, v.n)}
				}
			}
			c.decisions += uint64(r.Log.Len())
			c.backfills += uint64(r.Backfills)
			c.requeues += uint64(r.Requeues)
		}
		h = mixResult(h, r)
	}
	res := opResult{digest: h, c: c}
	if unfinished != "" {
		// Every job must end finished, killed or evicted. A job still
		// queued or running at the horizon fails the op.
		res.err = &incomplete{unfinished}
	}
	return res
}

// showdown is schedd.Showdown step by step, with a span around every layer
// call: the gang and batch daemons, then the fractional bound, in
// Showdown's order and configurations (the benchmark's test checks the
// rows are Showdown's). Each daemon's cluster adds its counters to c and
// its switch history to the returned digest.
func showdown(cfg schedd.Config, tr *tracer, c *counters) ([]*schedd.Result, uint64, error) {
	var rs []*schedd.Result
	h := uint64(fnvOffset)
	for _, mode := range []struct {
		name  string
		slots int
	}{{"gang", cfg.Slots}, {"batch", 1}} {
		mcfg := cfg
		mcfg.Slots = mode.slots
		sp := tr.begin("schedd.New")
		d, err := schedd.New(mcfg)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("schedd: %s: %w", mode.name, err)
		}
		sp = tr.begin("schedd.Daemon.Run")
		err = d.Run()
		c.scheddRunNs += tr.end(sp)
		c.scheddRuns++
		if err != nil {
			return nil, 0, err
		}
		sp = tr.begin("schedd.Daemon.Result")
		rs = append(rs, d.Result(mode.name))
		tr.end(sp)
		h = clusterCounters(d.Cluster(), h, c)
	}
	sp := tr.begin("schedd.Fractional")
	rs = append(rs, schedd.Fractional(cfg))
	tr.end(sp)
	return rs, h, nil
}

// ---- digests and counters shared by the workloads ---------------------

func mixSwitch(h uint64, s core.SwitchStats) uint64 {
	h = mix(h, s.Epoch)
	h = mix(h, uint64(s.From))
	h = mix(h, uint64(s.To))
	h = mix(h, uint64(s.Halt))
	h = mix(h, uint64(s.Copy))
	h = mix(h, uint64(s.Release))
	h = mix(h, uint64(s.ValidSend)<<32|uint64(s.ValidRecv))
	return mix(h, uint64(s.RestoredSend)<<32|uint64(s.RestoredRecv))
}

// mixResult folds one showdown row, its decision log included.
func mixResult(h uint64, r *schedd.Result) uint64 {
	row := fmt.Sprintf("%s %d %d %d %d %d %d %d %d %d %.9g %.9g %.9g %.9g %d %d %d %.9g %d %.9g %.9g %d %d %.9g %.9g %d",
		r.Mode, r.Jobs, r.Finished, r.Killed, r.Resized, r.Evicted, r.Censored, r.DlMiss, r.Backfills, r.Migrations,
		r.MeanResponse, r.MeanSlowdown, r.MaxSlowdown, r.Utilization,
		r.Requeues, r.RequeuedJobs, r.GaveUp, r.MeanRequeue, r.NodesLost, r.CapacityLost, r.Goodput,
		r.Repairs, r.NodesRepaired, r.CapacityRepaired, r.PostRepairGoodput, r.Events)
	h = mixString(h, row)
	if r.Log != nil {
		for _, line := range r.Log.Lines() {
			h = mixString(h, line)
		}
	}
	return h
}

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return mix(h, uint64(len(s)))
}

// netTotals is the data network's cumulative packet counts by class.
type netTotals struct{ data, ctrl, refill uint64 }

func (a netTotals) sub(b netTotals) netTotals {
	return netTotals{a.data - b.data, a.ctrl - b.ctrl, a.refill - b.refill}
}

func netStats(c *parpar.Cluster) netTotals {
	var t netTotals
	for typ, n := range c.Net.Stats().Sent {
		switch {
		case typ == myrinet.Data:
			t.data += n
		case typ == myrinet.Refill:
			t.refill += n
		case typ.IsControl():
			t.ctrl += n
		}
	}
	return t
}

// clusterCounters adds a finished machine's whole-run layer counters to c
// and folds its switch history into the digest h.
func clusterCounters(cl *parpar.Cluster, h uint64, c *counters) uint64 {
	c.events += cl.Fired()
	c.rotations += cl.Master().Epoch()
	c.net = c.net.add(netStats(cl))
	for i, n := range cl.Nodes() {
		st := n.NIC.Stats()
		c.halts += st.HaltsSent
		c.readys += st.ReadysSent
		c.rejoins += uint64(cl.Master().Rejoins(i))
	}
	for _, hist := range cl.SwitchHistory() {
		for _, s := range hist {
			h = mixSwitch(h, s)
			c.addSwitch(s)
		}
	}
	return h
}

func (a netTotals) add(b netTotals) netTotals {
	return netTotals{a.data + b.data, a.ctrl + b.ctrl, a.refill + b.refill}
}

// counters are the layer work counts an op moved.
type counters struct {
	events                 uint64
	rotations              uint64
	halts, readys          uint64
	net                    netTotals
	fmPkts, fmStalls       uint64
	switches, switchCycles uint64
	validPkts              uint64
	decisions, backfills   uint64
	requeues, rejoins      uint64
	scheddRuns             uint64
	scheddRunNs            int64
}

func (c *counters) addSwitch(s core.SwitchStats) {
	c.switches++
	c.switchCycles += uint64(s.Total())
	c.validPkts += uint64(s.ValidSend + s.ValidRecv)
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.rotations += o.rotations
	c.halts += o.halts
	c.readys += o.readys
	c.net = c.net.add(o.net)
	c.fmPkts += o.fmPkts
	c.fmStalls += o.fmStalls
	c.switches += o.switches
	c.switchCycles += o.switchCycles
	c.validPkts += o.validPkts
	c.decisions += o.decisions
	c.backfills += o.backfills
	c.requeues += o.requeues
	c.rejoins += o.rejoins
	c.scheddRuns += o.scheddRuns
	c.scheddRunNs += o.scheddRunNs
}
