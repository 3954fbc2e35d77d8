// Command perfbench is gangfm's benchmark: three single-process,
// single-goroutine, closed-loop workloads that time the simulator's public
// entry points and check every op's simulated output.
//
//	perfbench --workload paper16|rotation128|churn8 --seed N --seconds S --trace 0|1
//
// A run sets its workload up several times (set-up time is the median),
// then executes a fixed, seeded stream of ops one after another. The
// number of ops is the workload's calibrated rate times --seconds, so a
// run measures about --seconds on the calibration host and always the
// same work for a given seed. The last line of standard output is one
// JSON object: the end-to-end metrics with --trace 0, the per-layer
// metrics of a separate traced pass with --trace 1. The line before it
// carries the digest of the run's simulated outputs.
//
// README.md in this directory records why each workload exists, which
// layer metric should move which end-to-end metric, and the noise
// evidence behind the design.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its fixture; setup_s is the
// median. One set-up of 60-120 ms varies by about ±35% on a shared
// 2-core host, the median of seven does not.
const setupReps = 7

// maxRunFactor bounds a run that has become much slower than its
// calibration: ops left when the measured phase has taken this many times
// its calibrated duration are counted as attempted and failed, so the run
// still ends within its time limit.
const maxRunFactor = 5

func main() {
	// The simulator runs on one goroutine. With a second P the Go GC's
	// background marking runs on the other CPU, and on a shared 2-core host
	// that made the same churn8 run 6-22% slower than with one P, the gap
	// growing with the neighbours' load. One P keeps the measurement to the
	// CPU the simulator runs on.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper16, rotation128 or churn8")
	seed := fs.Uint64("seed", 1, "workload seed; every op's inputs are derived from it")
	seconds := fs.Int("seconds", 10, "calibrated run length; sets the number of ops")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced pass writes its spans to")
	replay := fs.Int("replay", -1, "set up, then run only op I (and the ops before it on rotation128) and print its outcome")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want paper16, rotation128 or churn8)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1\n")
		return 2
	}
	ops := w.ops(*seconds)
	if *replay >= 0 {
		return replayOp(w, *seed, *replay, stdout, stderr)
	}

	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed, ops, *out, stderr)
	} else {
		res, err = plainRun(w, *seed, ops, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s seed=%d ops=%d %016x\n", w.name, *seed, ops, res.digest)
	line, err := json.Marshal(res.report)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	report report
	digest uint64
}

// loop is the outcome of one closed-loop pass over ops [first, first+n).
// Times are in calibration-host seconds: each op's measured time scaled by
// the host speed the reference slices around it saw (reference.go).
type loop struct {
	lat      []float64 // time of every op that ran, failed or not
	wall     float64   // sum of lat
	cpu      float64   // process CPU time of the ops, scaled like lat
	rawWall  float64   // the ops' measured wall time, unscaled
	ran      int       // ops executed; the rest were skipped by the time budget
	failed   int
	wrong    int // failures that were wrong outputs, not incomplete ops
	digest   uint64
	counters counters
}

// runLoop executes ops one after another, each only after the previous
// one returned: a closed loop with one client.
func runLoop(f fixture, w *benchWorkload, seed uint64, first, n int, tr *tracer, ref *refState, budget time.Duration, stderr io.Writer) loop {
	l := loop{lat: make([]float64, 0, n), digest: fnvOffset}
	start := time.Now()
	before := ref.slice()
	for i := 0; i < n; i++ {
		idx := first + i
		if time.Since(start) > budget {
			l.failed++
			continue
		}
		l.ran++
		tr.startOp(idx)
		cpu0 := cpuSeconds()
		t := time.Now()
		r := safeOp(f, idx, tr)
		d := time.Since(t).Seconds()
		cpu := cpuSeconds() - cpu0
		// The op ran between two reference slices; its host speed is
		// taken from their mean.
		after := ref.slice()
		k := 2 * refNominal / (before + after)
		before = after
		l.cpu += cpu * k
		l.rawWall += d
		l.lat = append(l.lat, d*k)
		l.wall += d * k
		if r.err != nil {
			l.failed++
			if !w.isIncomplete(r.err) {
				l.wrong++
			}
			fmt.Fprintf(stderr, "perfbench: %s op %d failed: %v (replay: --workload %s --seed %d --replay %d)\n",
				w.name, idx, r.err, w.name, seed, idx)
			r.digest = mixString(r.digest, r.err.Error())
		}
		l.digest = mix(l.digest, r.digest)
		l.counters.add(r.c)
	}
	return l
}

// incomplete is an op the simulator did not carry to the end: it left
// jobs unfinished at the horizon. The op fails (it counts against
// ok_frac), but no output was found wrong, so the run stays correct. Any
// other failed check is a wrong output.
type incomplete struct{ msg string }

func (e *incomplete) Error() string { return e.msg }

// opPanic is an op that panicked; value is the panic's value as text.
type opPanic struct{ value string }

func (e *opPanic) Error() string { return "panic: " + e.value }

// isIncomplete reports whether a failed op is incomplete rather than
// wrong: it left jobs unfinished, or it raised a panic the workload is
// known to raise on the current tree. Any other panic is a wrong output.
func (w *benchWorkload) isIncomplete(err error) bool {
	var inc *incomplete
	if errors.As(err, &inc) {
		return true
	}
	var p *opPanic
	if errors.As(err, &p) {
		for _, known := range w.knownPanics {
			if strings.HasPrefix(p.value, known) {
				return true
			}
		}
	}
	return false
}

// safeOp runs one op and turns a panic into a failed op.
func safeOp(f fixture, i int, tr *tracer) (r opResult) {
	defer func() {
		if v := recover(); v != nil {
			tr.abort()
			r = opResult{digest: fnvOffset, err: &opPanic{fmt.Sprint(v)}}
		}
	}()
	return f.op(i, tr)
}

// setupMedian builds the fixture setupReps times and returns the last one
// with the median set-up time, in calibration-host seconds.
func setupMedian(w *benchWorkload, seed uint64, ops int, ref *refState) (fixture, float64, error) {
	times := make([]float64, setupReps)
	var f fixture
	for r := range times {
		f = nil
		runtime.GC()
		before := ref.slice()
		t := time.Now()
		var err error
		f, err = w.setup(seed, ops)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t).Seconds()
		times[r] = d * 2 * refNominal / (before + ref.slice())
	}
	runtime.GC()
	return f, median(times), nil
}

func plainRun(w *benchWorkload, seed uint64, ops int, stderr io.Writer) (*result, error) {
	ref := newRefState()
	f, setup, err := setupMedian(w, seed, ops, ref)
	if err != nil {
		return nil, err
	}
	l := runLoop(f, w, seed, 0, ops, nil, ref, w.budget(ops), stderr)
	p50, p90 := percentile(l.lat, 0.50), percentile(l.lat, 0.90)
	m := map[string]metric{
		"wall_s":      {l.wall, "s"},
		"cpu_s":       {l.cpu, "s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"op_p50_ms":   {p50 * 1e3, "ms"},
		"op_p90_ms":   {p90 * 1e3, "ms"},
		"ok_frac":     {float64(ops-l.failed) / float64(ops), "ratio"},
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d ops=%d wall=%.3fs (measured %.3fs) cpu=%.3fs setup=%.4fs p50=%.2fms p90=%.2fms failed=%d\n",
		w.name, seed, ops, l.wall, l.rawWall, l.cpu, setup, p50*1e3, p90*1e3, l.failed)
	return &result{
		report: report{Correct: l.wrong == 0, Attempted: ops, Failed: l.failed, Metrics: m},
		digest: l.digest,
	}, nil
}

// replayOp runs set-up once and then op i, printing its digest or error.
func replayOp(w *benchWorkload, seed uint64, i int, stdout, stderr io.Writer) int {
	f, err := w.setup(seed, i+1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	for k := 0; k < i && w.stateful; k++ {
		if r := safeOp(f, k, nil); r.err != nil {
			fmt.Fprintf(stderr, "perfbench: %s op %d: %v\n", w.name, k, r.err)
			return 1
		}
	}
	r := safeOp(f, i, nil)
	if r.err != nil {
		fmt.Fprintf(stdout, "op %d seed %d: %v\n", i, seed, r.err)
		return 1
	}
	fmt.Fprintf(stdout, "op %d seed %d: ok digest %016x\n", i, seed, r.digest)
	return 0
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// FNV-1a, used for the output digests.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}
