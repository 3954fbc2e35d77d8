package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call from the benchmark into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an op's outermost spans
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory; a nil tracer records nothing, so the
// untraced path pays one nil check per layer call.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) startOp(i int) {
	if t != nil {
		t.op = i
		t.stack = t.stack[:0]
	}
}

// abort drops the open spans of an op that panicked.
func (t *tracer) abort() {
	if t != nil {
		t.stack = t.stack[:0]
	}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
	return s.End - s.Start
}

// selfTimes sums each span name's self time: its duration minus the part
// its child spans cover. Spans left open by a panic are skipped.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		if s.End > 0 {
			self[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		}
	}
	return self
}

// write stores the spans and their per-name self times as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// modules are the layers CPU samples are attributed to.
var modules = []string{"sim", "myrinet", "lanai", "fm", "core", "gang", "parpar", "schedd", "workload", "runtime", "other"}

// moduleOf maps a Go function name to its layer, or "" for a standard
// library or runtime function, whose time belongs to whichever layer
// called it.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "gangfm/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range modules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return benchModule
	}
	return ""
}

// benchModule is the benchmark's own code: the tracer, the reference slice
// timed between ops, the checks. Its samples are not the program's.
const benchModule = "bench"

// cpuShares folds a pprof CPU profile into each module's share of the
// program's sampled CPU time. A sample belongs to the innermost frame of
// its stack that is in one of the program's packages or the benchmark's,
// so a map lookup or an allocation counts for the layer that made it;
// samples with no such frame (garbage collection, the scheduler) count as
// runtime. Samples that belong to the benchmark are left out of the total,
// so the shares split only the program's CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byModule := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if m := moduleOf(p.strings[p.funcNames[fn]]); m != "" {
					mod = m
					break stack
				}
			}
		}
		if mod == benchModule {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		byModule[mod] += v
	}
	out := map[string]float64{}
	for _, m := range modules {
		out[m] = 0
		if total > 0 {
			out[m] = byModule[m] / total
		}
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto the folding needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the profile.proto fields used here: Profile.sample
// (2), .location (4), .function (5) and .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := fields(b, func(f int, v uint64, data []byte) error {
		switch f {
		case 2:
			var s sample
			err := fields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					return varints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return fields(d, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, fmt.Errorf("cpu profile: function name index %d outside the string table", n)
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func fields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
	}
	return nil
}

// varints yields a repeated varint field's values, packed (data) or not (v).
func varints(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		yield(x)
		data = data[n:]
	}
	return nil
}

// sortedKeys returns m's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
