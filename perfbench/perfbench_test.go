package main

import (
	"bytes"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"gangfm/internal/schedd"
)

// pass sets a workload up for n ops and runs them, traced or not.
func pass(t *testing.T, name string, seed uint64, n int, traced bool) loop {
	t.Helper()
	w := workloads[name]
	f, err := w.setup(seed, n)
	if err != nil {
		t.Fatalf("%s: set-up: %v", name, err)
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	return runLoop(f, w, seed, 0, n, tr, newRefState(), time.Hour, io.Discard)
}

// The simulated outputs of a run are a function of the seed alone: the
// same digest across two runs, across GOMAXPROCS, and between the traced
// pass and the untraced one.
func TestDigestIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, n := range map[string]int{"paper16": 4, "rotation128": 4, "churn8": 6} {
		runtime.GOMAXPROCS(1)
		ref := pass(t, name, 1, n, false)
		again := pass(t, name, 1, n, false)
		runtime.GOMAXPROCS(2)
		two := pass(t, name, 1, n, false)
		traced := pass(t, name, 1, n, true)
		if ref.digest != again.digest || ref.digest != two.digest || ref.digest != traced.digest {
			t.Errorf("%s digests differ: run %016x, again %016x, GOMAXPROCS=2 %016x, traced %016x",
				name, ref.digest, again.digest, two.digest, traced.digest)
		}
		if ref.counters.events == 0 || ref.counters.events != traced.counters.events {
			t.Errorf("%s: %d events untraced, %d traced", name, ref.counters.events, traced.counters.events)
		}
		if other := pass(t, name, 2, n, false); other.digest == ref.digest {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %016x", name, ref.digest)
		}
	}
}

// churn8's step-by-step showdown serves the same rows as schedd.Showdown.
func TestShowdownMatchesSchedd(t *testing.T) {
	for _, s := range []uint64{opSeed(1, 0), opSeed(2, 0)} {
		cfg, err := churnConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := schedd.Showdown(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var c counters
		got, _, err := showdown(cfg, newTracer(), &c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rows, want %d", s, len(got), len(want))
		}
		for i := range want {
			if g, w := mixResult(fnvOffset, got[i]), mixResult(fnvOffset, want[i]); g != w {
				t.Errorf("seed %d: %s row differs from schedd.Showdown's %s row", s, got[i].Mode, want[i].Mode)
			}
		}
		if c.events == 0 || c.scheddRuns != 2 {
			t.Errorf("seed %d: %d events over %d daemon runs", s, c.events, c.scheddRuns)
		}
	}
}

// A second seed runs cleanly: no op produces a wrong output, and the
// clean-path workloads complete every op. churn8 may leave jobs
// unfinished or hit the known fm reassembly panic; those count against
// ok_frac, not correctness.
func TestSecondSeedRunsCleanly(t *testing.T) {
	for name, n := range map[string]int{"paper16": 3, "rotation128": 3, "churn8": 6} {
		l := pass(t, name, 2, n, false)
		if l.wrong != 0 {
			t.Errorf("%s seed 2: %d wrong outputs", name, l.wrong)
		}
		if name != "churn8" && l.failed != 0 {
			t.Errorf("%s seed 2: %d failed ops", name, l.failed)
		}
		if len(l.lat) != n {
			t.Errorf("%s seed 2: %d of %d ops ran", name, len(l.lat), n)
		}
	}
}

// A rotation128 op is one whole rotation: the checks inside op enforce
// one epoch and one switch per node; here the counters must agree.
func TestRotationCounters(t *testing.T) {
	l := pass(t, "rotation128", 1, 3, false)
	c := l.counters
	if c.rotations != 3 || c.switches != 3*rotNodes {
		t.Fatalf("3 rotations: got %d epochs and %d switches", c.rotations, c.switches)
	}
	// Every card tells every other card it halted, then that it is ready.
	if want := uint64(3 * rotNodes * (rotNodes - 1)); c.halts != want || c.readys != want {
		t.Errorf("halts %d readys %d, want %d each", c.halts, c.readys, want)
	}
	if c.net.data != 0 {
		t.Errorf("rotation128 sent %d data packets, want none", c.net.data)
	}
}

// A failing check is a wrong output, and so is a panic on a clean-path
// workload. On churn8 only the known fm reassembly panics and jobs left
// unfinished are incomplete ops; any other panic is wrong.
func TestFailureKinds(t *testing.T) {
	for _, tc := range []struct {
		workload      string
		failed, wrong int
	}{
		{"paper16", 5, 4},
		{"rotation128", 5, 4},
		{"churn8", 5, 2},
	} {
		l := runLoop(fakeFixture{}, workloads[tc.workload], 1, 0, 6, nil, newRefState(), time.Hour, io.Discard)
		if l.failed != tc.failed || l.wrong != tc.wrong || len(l.lat) != 6 {
			t.Errorf("%s: failed %d wrong %d ran %d, want %d, %d, 6",
				tc.workload, l.failed, l.wrong, len(l.lat), tc.failed, tc.wrong)
		}
	}
}

type fakeFixture struct{}

func (fakeFixture) op(i int, _ *tracer) opResult {
	switch i {
	case 1:
		panic("fm: fragment 1 from rank 3 arrived out of order (want 0)")
	case 2:
		panic("fm: interleaved fragments from rank 2 (msg 127 arrived during msg 126)")
	case 3:
		panic("boom")
	case 4:
		return opResult{err: io.ErrUnexpectedEOF}
	case 5:
		return opResult{err: &incomplete{"gang left 1 jobs unfinished at the horizon"}}
	}
	return opResult{digest: 1}
}

// cpuShares reads a real Go CPU profile and attributes the engine's own
// hot loop to sim.
func TestCPUSharesFoldsProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		scheduleStepNs(64)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 || shares["sim"] < 0.2 {
		t.Errorf("shares %v: sum %.3f, sim %.3f", shares, sum, shares["sim"])
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gangfm/internal/sim.(*Engine).Step":              "sim",
		"gangfm/internal/lanai.(*phaseTracker).liveHeard": "lanai",
		"gangfm/internal/chaos/fuzzer.Run":                "other",
		"runtime.mallocgc":                                "",
		"internal/runtime/maps.(*Map).getWithKeySmall":    "",
		"main.(*tracer).begin":                            "bench",
		"gangfm/internal/memmodel.(*Model).CopyCycles":    "other",
		"gangfm/internal/schedd.(*Daemon).admit.func1":    "schedd",
		"gangfm/internal/workload.AllToAll.func1.1":       "workload",
		"sort.Slice": "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper16", "--trace", "2"},
		{"--workload", "paper16", "--seconds", "0"},
	} {
		var out, errb strings.Builder
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}
