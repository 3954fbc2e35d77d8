package lanai

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gangfm/internal/myrinet"
)

// refTracker is the naive flush tracker that phaseTracker replaced: per-
// epoch heard maps, recounted against a membership map on every query. It
// is the reference the differential test holds phaseTracker to.
type refTracker struct {
	peers   int
	heard   map[uint64]map[myrinet.NodeID]bool
	local   map[uint64]bool
	onDone  map[uint64]func()
	evicted map[myrinet.NodeID]bool
	doneLo  uint64
	doneAny bool
	doneEx  map[uint64]bool
}

func newRefTracker(peers int) *refTracker {
	return &refTracker{
		peers:   peers,
		heard:   make(map[uint64]map[myrinet.NodeID]bool),
		local:   make(map[uint64]bool),
		onDone:  make(map[uint64]func()),
		evicted: make(map[myrinet.NodeID]bool),
		doneEx:  make(map[uint64]bool),
	}
}

func (t *refTracker) LocalTransition(epoch uint64, onDone func()) {
	if t.local[epoch] {
		panic("lanai: duplicate local phase transition for epoch")
	}
	t.local[epoch] = true
	t.onDone[epoch] = onDone
	t.check(epoch)
}

func (t *refTracker) Arrive(epoch uint64, from myrinet.NodeID) bool {
	if t.Done(epoch) || t.evicted[from] {
		return false
	}
	set := t.heard[epoch]
	if set == nil {
		set = make(map[myrinet.NodeID]bool)
		t.heard[epoch] = set
	}
	if set[from] {
		return false
	}
	set[from] = true
	t.check(epoch)
	return true
}

func (t *refTracker) Heard(epoch uint64, from myrinet.NodeID) bool { return t.heard[epoch][from] }

func (t *refTracker) liveHeard(epoch uint64) int {
	n := 0
	for from := range t.heard[epoch] {
		if !t.evicted[from] {
			n++
		}
	}
	return n
}

func (t *refTracker) State(epoch uint64) (bool, int) { return t.local[epoch], t.liveHeard(epoch) }

func (t *refTracker) Done(epoch uint64) bool {
	return (t.doneAny && epoch < t.doneLo) || t.doneEx[epoch]
}

func (t *refTracker) Transitioned(epoch uint64) bool { return t.Done(epoch) || t.local[epoch] }

func (t *refTracker) ForceComplete(epoch uint64) bool {
	if t.Done(epoch) || !t.local[epoch] {
		return false
	}
	t.complete(epoch)
	return true
}

func (t *refTracker) Evict(peer myrinet.NodeID) {
	if t.evicted[peer] {
		return
	}
	t.evicted[peer] = true
	t.peers--
	open := make([]uint64, 0, len(t.onDone))
	for e := range t.onDone {
		open = append(open, e)
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	for _, e := range open {
		t.check(e)
	}
}

func (t *refTracker) Join(peer myrinet.NodeID) {
	if !t.evicted[peer] {
		return
	}
	delete(t.evicted, peer)
	t.peers++
}

func (t *refTracker) check(epoch uint64) {
	if t.Done(epoch) || !t.local[epoch] || t.liveHeard(epoch) < t.peers {
		return
	}
	t.complete(epoch)
}

func (t *refTracker) complete(epoch uint64) {
	if !t.doneAny {
		t.doneAny = true
		t.doneLo = epoch
	}
	t.doneEx[epoch] = true
	for t.doneEx[t.doneLo] {
		delete(t.doneEx, t.doneLo)
		t.doneLo++
	}
	cb := t.onDone[epoch]
	delete(t.heard, epoch)
	delete(t.local, epoch)
	delete(t.onDone, epoch)
	if cb != nil {
		cb()
	}
}

// panics runs f and reports whether it panicked.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// TestPhaseTrackerMatchesReference drives seeded random sequences of local
// transitions, arrivals (early, duplicate, stale and from self),
// evictions, joins and forced completions through phaseTracker and
// refTracker, and after every step demands the same return values, the
// same Figure 3 state, Done, Transitioned and Heard for every epoch in
// play, and the same completion-callback order. Some callbacks evict a
// peer from inside the completion, re-entering Evict.
func TestPhaseTrackerMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 9, 63, 64, 65, 130}
	for seed := int64(1); seed <= 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		peers := sizes[r.Intn(len(sizes))]
		if msg := diffTrackers(r, peers, 300); msg != "" {
			t.Fatalf("seed %d, %d peers: %s", seed, peers, msg)
		}
	}
}

func diffTrackers(r *rand.Rand, peers, steps int) string {
	pt, ref := newTestTracker(peers), newRefTracker(peers)
	var gotLog, wantLog []uint64
	// cb returns the completion callback of one side: it logs the epoch
	// and, if nested is a peer, evicts it from inside the callback.
	cb := func(log *[]uint64, e uint64, nested myrinet.NodeID, evictFn func(myrinet.NodeID)) func() {
		return func() {
			*log = append(*log, e)
			if nested >= 0 {
				evictFn(nested)
			}
		}
	}
	ptEvict := func(p myrinet.NodeID) { evict(pt, p) }
	base := uint64(r.Intn(2)) * 1000
	const window = 6
	peer := func() myrinet.NodeID { return myrinet.NodeID(1 + r.Intn(peers)) }
	for step := 0; step < steps; step++ {
		e := base + uint64(r.Intn(window))
		var op string
		switch k := r.Intn(100); {
		case k < 15:
			nested := myrinet.NodeID(-1)
			if r.Intn(4) == 0 {
				nested = peer()
			}
			op = fmt.Sprintf("LocalTransition(%d, evict %d)", e, nested)
			gp := panics(func() { pt.LocalTransition(e, cb(&gotLog, e, nested, ptEvict)) })
			wp := panics(func() { ref.LocalTransition(e, cb(&wantLog, e, nested, ref.Evict)) })
			if gp != wp {
				return fmt.Sprintf("step %d %s: panicked %v, reference %v", step, op, gp, wp)
			}
		case k < 65:
			// Node 0 is the tracker's own node; the reference counts a
			// message from it like any other, so the tracker must too.
			from := myrinet.NodeID(r.Intn(peers + 1))
			op = fmt.Sprintf("Arrive(%d, %d)", e, from)
			if g, w := pt.Arrive(e, from), ref.Arrive(e, from); g != w {
				return fmt.Sprintf("step %d %s = %v, reference %v", step, op, g, w)
			}
		case k < 75:
			p := peer()
			op = fmt.Sprintf("Evict(%d)", p)
			evict(pt, p)
			ref.Evict(p)
		case k < 85:
			p := peer()
			op = fmt.Sprintf("Join(%d)", p)
			join(pt, p)
			ref.Join(p)
		default:
			op = fmt.Sprintf("ForceComplete(%d)", e)
			if g, w := pt.ForceComplete(e), ref.ForceComplete(e); g != w {
				return fmt.Sprintf("step %d %s = %v, reference %v", step, op, g, w)
			}
		}
		if !slices.Equal(gotLog, wantLog) {
			return fmt.Sprintf("step %d %s: completions %v, reference %v", step, op, gotLog, wantLog)
		}
		if pt.peers != ref.peers {
			return fmt.Sprintf("step %d %s: %d peers expected, reference %d", step, op, pt.peers, ref.peers)
		}
		for ep := base; ep < base+window; ep++ {
			gl, gr := pt.State(ep)
			wl, wr := ref.State(ep)
			if gl != wl || gr != wr {
				return fmt.Sprintf("step %d %s: State(%d) = (%v,%d), reference (%v,%d)", step, op, ep, gl, gr, wl, wr)
			}
			if pt.Done(ep) != ref.Done(ep) || pt.Transitioned(ep) != ref.Transitioned(ep) {
				return fmt.Sprintf("step %d %s: epoch %d Done/Transitioned differ", step, op, ep)
			}
			for p := 0; p <= peers; p++ {
				if pt.Heard(ep, myrinet.NodeID(p)) != ref.Heard(ep, myrinet.NodeID(p)) {
					return fmt.Sprintf("step %d %s: Heard(%d, %d) differs", step, op, ep, p)
				}
			}
		}
	}
	return ""
}
