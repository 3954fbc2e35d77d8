package lanai

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gangfm/internal/myrinet"
)

// newTestTracker returns node 0's tracker on a machine of peers+1 nodes,
// with a membership bitset of its own.
func newTestTracker(peers int) *phaseTracker {
	return newPhaseTracker(peers+1, newBitset(peers+1))
}

// evict and join change a peer's membership the way NIC.EvictPeer and
// NIC.JoinPeer do: flip the membership bit once, then notify the tracker.
func evict(pt *phaseTracker, peer myrinet.NodeID) {
	if pt.evicted.add(peer) {
		pt.Evict(peer)
	}
}

func join(pt *phaseTracker, peer myrinet.NodeID) {
	if pt.evicted.remove(peer) {
		pt.Join(peer)
	}
}

func TestPhaseTrackerBasic(t *testing.T) {
	pt := newTestTracker(3)
	done := false
	pt.LocalTransition(1, func() { done = true })
	if done {
		t.Fatal("completed before any remote arrival")
	}
	pt.Arrive(1, 1)
	pt.Arrive(1, 2)
	if done {
		t.Fatal("completed with only 2 of 3 remote halts")
	}
	pt.Arrive(1, 3)
	if !done {
		t.Fatal("did not complete at H,p")
	}
	if !pt.Done(1) {
		t.Fatal("Done(1) should be true")
	}
}

func TestPhaseTrackerRemoteFirst(t *testing.T) {
	// Figure 3: an arriving halt may precede the local halt ("a certain
	// LANai may receive a halt message before it was notified by its
	// noded").
	pt := newTestTracker(2)
	pt.Arrive(5, 1)
	pt.Arrive(5, 2)
	done := false
	pt.LocalTransition(5, func() { done = true })
	if !done {
		t.Fatal("local transition after all remotes should complete immediately")
	}
}

func TestPhaseTrackerEpochIsolation(t *testing.T) {
	pt := newTestTracker(1)
	done1, done2 := false, false
	pt.LocalTransition(1, func() { done1 = true })
	// A halt for a *future* epoch must not complete epoch 1.
	pt.Arrive(2, 1)
	if done1 {
		t.Fatal("epoch-2 arrival completed epoch 1")
	}
	pt.Arrive(1, 1)
	if !done1 {
		t.Fatal("epoch 1 should have completed")
	}
	pt.LocalTransition(2, func() { done2 = true })
	if !done2 {
		t.Fatal("epoch 2 should complete from the early arrival")
	}
}

func TestPhaseTrackerZeroPeers(t *testing.T) {
	pt := newTestTracker(0)
	done := false
	pt.LocalTransition(0, func() { done = true })
	if !done {
		t.Fatal("single-node flush should complete on local transition")
	}
}

func TestPhaseTrackerState(t *testing.T) {
	pt := newTestTracker(4)
	if l, r := pt.State(7); l || r != 0 {
		t.Fatal("initial state should be S,0")
	}
	pt.Arrive(7, 1)
	pt.Arrive(7, 2)
	if l, r := pt.State(7); l || r != 2 {
		t.Fatalf("state after 2 arrivals = (%v,%d), want (false,2)", l, r)
	}
	pt.LocalTransition(7, nil)
	if l, r := pt.State(7); !l || r != 2 {
		t.Fatalf("state after lh = (%v,%d), want (true,2)", l, r)
	}
}

func TestPhaseTrackerDuplicateLocalPanics(t *testing.T) {
	pt := newTestTracker(2)
	pt.LocalTransition(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate local transition")
		}
	}()
	pt.LocalTransition(1, nil)
}

func TestPhaseTrackerDuplicateArrivalIsStale(t *testing.T) {
	// A retransmitted halt from a peer already counted must not advance
	// the state machine; Arrive reports it stale instead.
	pt := newTestTracker(2)
	if !pt.Arrive(1, 1) {
		t.Fatal("first arrival from peer 1 should be fresh")
	}
	if pt.Arrive(1, 1) {
		t.Fatal("duplicate arrival from peer 1 should be stale")
	}
	if l, r := pt.State(1); l || r != 1 {
		t.Fatalf("state after duplicate = (%v,%d), want (false,1)", l, r)
	}
	done := false
	pt.LocalTransition(1, func() { done = true })
	pt.Arrive(1, 2)
	if !done {
		t.Fatal("fresh arrival from peer 2 should complete the phase")
	}
	// Anything for a completed epoch is stale, fresh peer or not.
	if pt.Arrive(1, 1) || pt.Arrive(1, 2) {
		t.Fatal("arrivals for a completed epoch should be stale")
	}
}

func TestPhaseTrackerForceComplete(t *testing.T) {
	pt := newTestTracker(2)
	done := false
	// Before the local transition, force-complete must refuse: the node
	// has not even halted itself yet.
	if pt.ForceComplete(3) {
		t.Fatal("force-complete before local transition should refuse")
	}
	pt.LocalTransition(3, func() { done = true })
	pt.Arrive(3, 1)
	if !pt.ForceComplete(3) {
		t.Fatal("force-complete of an open epoch should succeed")
	}
	if !done || !pt.Done(3) {
		t.Fatal("force-complete should fire the completion callback")
	}
	if pt.ForceComplete(3) {
		t.Fatal("force-complete of a done epoch should be a no-op")
	}
	// The straggler that force-complete stopped waiting for is stale.
	if pt.Arrive(3, 2) {
		t.Fatal("post-force arrival should be stale")
	}
}

func TestPhaseTrackerEvict(t *testing.T) {
	pt := newTestTracker(3)
	done := false
	pt.LocalTransition(1, func() { done = true })
	pt.Arrive(1, 1)
	pt.Arrive(1, 2)
	// Evicting the only unheard peer completes the open epoch.
	evict(pt, 3)
	if !done {
		t.Fatal("eviction of the last missing peer should complete the phase")
	}
	if !pt.evicted.has(3) || pt.evicted.has(2) {
		t.Fatal("eviction bookkeeping wrong")
	}
	// The next epoch expects only the two survivors.
	done = false
	pt.LocalTransition(2, func() { done = true })
	if pt.Arrive(2, 3) {
		t.Fatal("arrival from an evicted peer should be stale")
	}
	pt.Arrive(2, 1)
	pt.Arrive(2, 2)
	if !done {
		t.Fatal("survivor-only epoch should complete without the evicted peer")
	}
	// Eviction is idempotent: peers must not be double-decremented.
	evict(pt, 3)
	done = false
	pt.LocalTransition(4, func() { done = true })
	pt.Arrive(4, 1)
	if done {
		t.Fatal("epoch completed with one of two surviving peers missing")
	}
	pt.Arrive(4, 2)
	if !done {
		t.Fatal("epoch should complete with both survivors heard")
	}
}

func TestPhaseTrackerEvictAlreadyHeardPeer(t *testing.T) {
	// Evicting a peer whose message was already counted must re-evaluate
	// the epoch with that arrival discounted — not complete early.
	pt := newTestTracker(2)
	done := false
	pt.LocalTransition(1, func() { done = true })
	pt.Arrive(1, 1)
	evict(pt, 1)
	if done {
		t.Fatal("evicting the already-heard peer must discount its arrival, not complete the phase")
	}
	pt.Arrive(1, 2)
	if !done {
		t.Fatal("the surviving peer's arrival should complete the phase")
	}
}

func TestPhaseTrackerJoin(t *testing.T) {
	pt := newTestTracker(3)
	// Peer 2 reports early for a future epoch, then is evicted: the
	// retained arrival stops counting but is not forgotten.
	pt.Arrive(5, 2)
	evict(pt, 2)
	if l, r := pt.State(5); l || r != 0 {
		t.Fatalf("state after evicting the early reporter = (%v,%d), want (false,0)", l, r)
	}
	if !pt.Heard(5, 2) {
		t.Fatal("the evicted peer's early arrival should stay recorded")
	}
	join(pt, 2)
	if pt.evicted.has(2) {
		t.Fatal("join should clear the membership bit")
	}
	if l, r := pt.State(5); l || r != 1 {
		t.Fatalf("state after rejoin = (%v,%d), want (false,1): the retained arrival counts again", l, r)
	}
	if pt.Arrive(5, 2) {
		t.Fatal("the rejoined peer's repeat of a counted arrival should be stale")
	}
	done := false
	pt.LocalTransition(5, func() { done = true })
	pt.Arrive(5, 1)
	if done {
		t.Fatal("completed with peer 3 still missing")
	}
	pt.Arrive(5, 3)
	if !done {
		t.Fatal("epoch should complete with the rejoined peer's early arrival counted")
	}
	// A joined peer is expected again: epoch 6 waits for it.
	done = false
	pt.LocalTransition(6, func() { done = true })
	pt.Arrive(6, 1)
	pt.Arrive(6, 3)
	if done {
		t.Fatal("epoch completed without the rejoined peer")
	}
	pt.Arrive(6, 2)
	if !done {
		t.Fatal("rejoined peer's arrival should complete the epoch")
	}
	// Join is idempotent: a member's join must not grow the expected count.
	join(pt, 2)
	done = false
	pt.LocalTransition(7, func() { done = true })
	for p := myrinet.NodeID(1); p <= 3; p++ {
		pt.Arrive(7, p)
	}
	if !done {
		t.Fatal("a repeated join inflated the expected count")
	}
}

func TestPhaseTrackerTransitioned(t *testing.T) {
	pt := newTestTracker(1)
	if pt.Transitioned(9) {
		t.Fatal("untouched epoch should not be transitioned")
	}
	pt.LocalTransition(9, nil)
	if !pt.Transitioned(9) {
		t.Fatal("open epoch after local transition should be transitioned")
	}
	pt.Arrive(9, 1)
	if !pt.Done(9) || !pt.Transitioned(9) {
		t.Fatal("completed epoch should remain transitioned")
	}
}

// Property (Figure 3): for ANY interleaving of the local halt and the p-1
// arriving halts, the tracker completes exactly once, and only after all
// transitions have happened.
func TestFlushAllInterleavingsProperty(t *testing.T) {
	prop := func(seed int64, peers8 uint8) bool {
		peers := int(peers8%8) + 1
		// Build the transition multiset: one "lh" + peers "ah".
		events := make([]int, 0, peers+1)
		events = append(events, -1) // local halt
		for i := 0; i < peers; i++ {
			events = append(events, i)
		}
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

		pt := newTestTracker(peers)
		completions := 0
		for i, ev := range events {
			last := i == len(events)-1
			if ev == -1 {
				pt.LocalTransition(0, func() { completions++ })
			} else {
				pt.Arrive(0, myrinet.NodeID(ev+1))
			}
			if !last && completions != 0 {
				return false // completed early
			}
		}
		return completions == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// flushEpoch runs one whole epoch through node 0's tracker on a machine of
// the given size: the local transition, then an arrival from each of the
// other nodes.
func flushEpoch(pt *phaseTracker, nodes int, epoch uint64, done func()) {
	pt.LocalTransition(epoch, done)
	for p := 1; p < nodes; p++ {
		pt.Arrive(epoch, myrinet.NodeID(p))
	}
}

// BenchmarkFlushEpoch is the per-layer cost of the flush accounting: one
// epoch of p-1 arrivals per op, on one tracker.
func BenchmarkFlushEpoch(b *testing.B) {
	for _, n := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pt := newTestTracker(n - 1)
			done := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flushEpoch(pt, n, uint64(i), done)
			}
		})
	}
}

// The steady-state flush allocates nothing: epoch records are pooled.
func TestFlushEpochZeroAlloc(t *testing.T) {
	pt := newTestTracker(127)
	completed := 0
	done := func() { completed++ }
	epoch := uint64(0)
	flushEpoch(pt, 128, epoch, done)
	allocs := testing.AllocsPerRun(100, func() {
		epoch++
		flushEpoch(pt, 128, epoch, done)
	})
	if allocs != 0 {
		t.Fatalf("steady-state flush epoch allocates %.1f times, want 0", allocs)
	}
	if want := int(epoch) + 1; completed != want {
		t.Fatalf("%d epochs completed, want %d", completed, want)
	}
}
