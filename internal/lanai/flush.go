package lanai

// flush.go implements the state machines of paper Figure 3 (network flush)
// and its mirror image for the release stage.
//
// During a flush, each node performs two independent things, interleaved
// arbitrarily: a *local halt* ("lh": stop transmitting, broadcast a halt
// message) and the *collection* of halt messages from every other node
// ("ah" transitions). The flush completes in state H,p — locally halted
// and p-1 remote halts counted (the node itself is the p-th).
//
// Because nodes are not synchronized, a node can receive halts — or even
// readys — for an epoch it has not itself entered yet. Counters are
// therefore keyed by epoch; this is the robustness refinement called out
// in DESIGN.md (the real system relied on phase alternation).
//
// The tracker also remembers *which* peer each message came from, which is
// what makes the recovery layer possible: duplicates (from retransmission)
// are idempotent, completed epochs reject late stragglers, the unheard-peer
// set is the retransmission target list, and an evicted peer can be dropped
// from the expected count of every open epoch.
//
// Figure 3's state is a counter, and so is the tracker's: each epoch keeps
// a dense heard bitset plus a count of the heard peers that are still
// members, so an arrival costs O(1). Membership changes are the rare event
// that pays — an eviction or join adjusts the count of every retained
// epoch that heard the peer.

import (
	"slices"

	"gangfm/internal/myrinet"
)

// bitset is a dense set of node IDs, one bit per node of the machine.
type bitset []uint64

func newBitset(nodes int) bitset { return make(bitset, (nodes+63)/64) }

func (b bitset) has(id myrinet.NodeID) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// add inserts id and reports whether it was absent.
func (b bitset) add(id myrinet.NodeID) bool {
	if b.has(id) {
		return false
	}
	b[id>>6] |= 1 << (id & 63)
	return true
}

// remove deletes id and reports whether it was present.
func (b bitset) remove(id myrinet.NodeID) bool {
	if !b.has(id) {
		return false
	}
	b[id>>6] &^= 1 << (id & 63)
	return true
}

// epochState is one epoch's record: the peers heard from, how many of
// them are still members, and the local transition with its callback.
type epochState struct {
	heard  bitset
	live   int
	local  bool
	onDone func()
}

// phaseTracker counts one class of control message (halt or ready) per
// epoch and fires a completion callback when the local transition has
// happened and all expected remote messages have arrived.
type phaseTracker struct {
	peers int // number of live remote nodes expected to report (p-1)

	// evicted is the card's membership bitset, shared by its flush and
	// release trackers. The card flips a peer's bit, then calls Evict or
	// Join on each tracker; the tracker only reads it.
	evicted bitset

	epochs map[uint64]*epochState

	// Completed epochs are tracked as a watermark plus exceptions rather
	// than an ever-growing set: epochs complete (nearly) in order, one per
	// switch, so a per-epoch map entry retained forever would make the
	// steady state allocate. Every epoch below doneLo is complete (valid
	// once doneAny is set — the floor is anchored to the first completed
	// epoch, since callers may start numbering anywhere); doneEx holds the
	// out-of-order completions at or above the floor and is compacted into
	// doneLo as the gap fills.
	doneLo  uint64
	doneAny bool
	doneEx  map[uint64]bool

	// pool recycles completed epoch records and openScratch is Evict's
	// reusable list of open epochs: epochs open and close at every switch,
	// so the steady-state flush allocates nothing.
	pool        []*epochState
	openScratch []uint64
}

// newPhaseTracker returns a tracker for a card on a machine of the given
// size, reading membership from the card's evicted bitset.
func newPhaseTracker(nodes int, evicted bitset) *phaseTracker {
	return &phaseTracker{
		peers:   nodes - 1,
		evicted: evicted,
		epochs:  make(map[uint64]*epochState),
		doneEx:  make(map[uint64]bool),
	}
}

// record returns the epoch's record, opening a pooled one if needed.
func (t *phaseTracker) record(epoch uint64) *epochState {
	s := t.epochs[epoch]
	if s == nil {
		if ln := len(t.pool); ln > 0 {
			s = t.pool[ln-1]
			t.pool = t.pool[:ln-1]
		} else {
			s = &epochState{heard: make(bitset, len(t.evicted))}
		}
		t.epochs[epoch] = s
	}
	return s
}

// LocalTransition records the node's own halt/ready ("lh" in Figure 3) for
// epoch and registers the completion callback.
func (t *phaseTracker) LocalTransition(epoch uint64, onDone func()) {
	s := t.record(epoch)
	if s.local {
		panic("lanai: duplicate local phase transition for epoch")
	}
	s.local = true
	s.onDone = onDone
	t.check(epoch, s)
}

// Arrive records a remote halt/ready ("ah" in Figure 3) for epoch from the
// given peer. It reports whether the message carried new information: a
// duplicate of an already-counted peer, a message for a completed epoch, or
// one from an evicted peer is stale and returns false (the caller counts it
// and drops the packet).
func (t *phaseTracker) Arrive(epoch uint64, from myrinet.NodeID) bool {
	if t.Done(epoch) || t.evicted.has(from) {
		return false
	}
	s := t.record(epoch)
	if !s.heard.add(from) {
		return false
	}
	s.live++
	t.check(epoch, s)
	return true
}

// Heard reports whether the peer's message for epoch has been counted.
func (t *phaseTracker) Heard(epoch uint64, from myrinet.NodeID) bool {
	s := t.epochs[epoch]
	return s != nil && s.heard.has(from)
}

// State returns (locallyDone, remoteCount) for an epoch — the Figure 3
// state label (S/H, k) with k = remoteCount + (1 if locallyDone).
func (t *phaseTracker) State(epoch uint64) (local bool, remote int) {
	if s := t.epochs[epoch]; s != nil {
		return s.local, s.live
	}
	return false, 0
}

// Done reports whether the epoch's phase has completed.
func (t *phaseTracker) Done(epoch uint64) bool {
	return (t.doneAny && epoch < t.doneLo) || t.doneEx[epoch]
}

// Transitioned reports whether this node has made its own transition for
// the epoch (including epochs already completed, whose per-epoch state has
// been freed).
func (t *phaseTracker) Transitioned(epoch uint64) bool {
	if t.Done(epoch) {
		return true
	}
	s := t.epochs[epoch]
	return s != nil && s.local
}

// ForceComplete completes an epoch's phase without the missing peers — the
// recovery layer's last resort after the retransmission budget is spent.
// It is a no-op before the local transition or after normal completion.
func (t *phaseTracker) ForceComplete(epoch uint64) bool {
	s := t.epochs[epoch]
	if t.Done(epoch) || s == nil || !s.local {
		return false
	}
	t.complete(epoch, s)
	return true
}

// Evict drops a peer, whose bit the card has just set in the membership
// bitset, from the expected count of every epoch, past or future, and
// discounts its arrivals in every retained record. Open epochs whose only
// missing messages were the evicted peer's complete immediately (in
// ascending epoch order, for determinism).
func (t *phaseTracker) Evict(peer myrinet.NodeID) {
	t.peers--
	// Take the scratch list: a completion callback may evict again.
	open := t.openScratch[:0]
	t.openScratch = nil
	for e, s := range t.epochs {
		if s.heard.has(peer) {
			s.live--
		}
		if s.local {
			open = append(open, e)
		}
	}
	slices.Sort(open)
	for _, e := range open {
		if s := t.epochs[e]; s != nil {
			t.check(e, s)
		}
	}
	t.openScratch = open
}

// Join restores a peer, whose bit the card has just cleared in the
// membership bitset: future epochs expect its reports again, and arrivals
// it made before its eviction that are still retained (an early report for
// a future epoch) count again. The caller (the masterd rejoin barrier)
// guarantees no epoch is open anywhere when joins are applied — growing
// the membership mid-epoch could stall an epoch that was already
// satisfied. A join can never complete an epoch, so it re-checks nothing.
func (t *phaseTracker) Join(peer myrinet.NodeID) {
	t.peers++
	for _, s := range t.epochs {
		if s.heard.has(peer) {
			s.live++
		}
	}
}

func (t *phaseTracker) check(epoch uint64, s *epochState) {
	if !s.local || s.live < t.peers || t.Done(epoch) {
		return
	}
	t.complete(epoch, s)
}

func (t *phaseTracker) complete(epoch uint64, s *epochState) {
	if !t.doneAny {
		t.doneAny = true
		t.doneLo = epoch
	}
	t.doneEx[epoch] = true
	for t.doneEx[t.doneLo] {
		delete(t.doneEx, t.doneLo)
		t.doneLo++
	}
	cb := s.onDone
	// Free the epoch's record; epochs are never revisited (the done
	// watermark keeps stragglers for old epochs detectable without
	// retaining per-epoch state).
	delete(t.epochs, epoch)
	clear(s.heard)
	s.live, s.local, s.onDone = 0, false, nil
	t.pool = append(t.pool, s)
	if cb != nil {
		cb()
	}
}
