package core

import (
	"errors"
	"fmt"
	"slices"

	"nowover/internal/exchange"
	"nowover/internal/ids"
	"nowover/internal/metrics"
	"nowover/internal/over"
	"nowover/internal/randnum"
	"nowover/internal/walk"
	"nowover/internal/xrand"
)

// ErrUnknownNode reports an operation aimed at a node that is not in the
// network. Batch drivers match it to distinguish "the victim already left"
// from genuine protocol failures.
var ErrUnknownNode = errors.New("core: unknown node")

// IsUnknownNode reports whether err indicates an operation aimed at a node
// that is not (or no longer) in the network.
func IsUnknownNode(err error) bool { return errors.Is(err, ErrUnknownNode) }

// ErrUnknownCluster reports an operation aimed at a cluster that is not in
// the overlay — typically one dissolved by a merge earlier in the same
// batch. Batch drivers match it the same way as ErrUnknownNode.
var ErrUnknownCluster = errors.New("core: unknown cluster")

// IsUnknownCluster reports whether err indicates an operation aimed at a
// cluster that is not (or no longer) in the overlay.
func IsUnknownCluster(err error) bool { return errors.Is(err, ErrUnknownCluster) }

// nodeInfo is the world's per-node record. Records live in a dense
// slot-indexed arena (World.nodes); present distinguishes a live record
// from a never-used or vacated slot.
type nodeInfo struct {
	cluster ids.ClusterID
	byz     bool
	present bool
}

// clusterState is the world's per-cluster record: member list, incremental
// Byzantine count, and the security bookkeeping folded by settleSecurity
// at operation boundaries. Records are managed by the cluster arena —
// retired records keep their member capacity and return to a free list for
// recycling by putCluster — so steady-state churn allocates nothing.
//
// Member removal is a linear scan: cluster sizes are bounded by the split
// threshold (K·L·log2 N, ~80 at n=2^20), so the scan is cheaper than the
// position map it replaced and keeps the record to two words of header
// state per cluster.
type clusterState struct {
	members []ids.NodeID
	byz     int
	// sec is the current (live) security class, maintained incrementally
	// by clusterArena.reclassify on every membership/allegiance change.
	sec randnum.Security
	// settled is the class as of the last settleSecurity pass; the
	// sec-vs-settled delta drives the Degraded/CapturedEvents counters.
	settled randnum.Security
	// dirty marks the record as queued in the arena's dirtySlots list.
	dirty bool
}

func (cs *clusterState) indexOf(x ids.NodeID) int {
	for i, m := range cs.members {
		if m == x {
			return i
		}
	}
	return -1
}

func (cs *clusterState) add(x ids.NodeID, byz bool) {
	cs.members = append(cs.members, x)
	if byz {
		cs.byz++
	}
}

func (cs *clusterState) remove(x ids.NodeID, byz bool) error {
	i := cs.indexOf(x)
	if i < 0 {
		// Double removal (e.g. of a node that was swap-moved out by an
		// earlier removal) lands here: the membership scan is the guard.
		return fmt.Errorf("core: node %v not in cluster", x)
	}
	if byz && cs.byz == 0 {
		return fmt.Errorf("core: removing %v would underflow the Byzantine count", x)
	}
	last := len(cs.members) - 1
	cs.members[i] = cs.members[last]
	cs.members = cs.members[:last]
	if byz {
		cs.byz--
	}
	// An emptied record deliberately keeps its backing array: the cluster
	// is about to be retired into the arena's free list (or refilled), and
	// the retained capacity is what makes the recycled record's next fill
	// allocation-free.
	return nil
}

// clone deep-copies the membership-relevant fields of the record (used by
// the op scheduler's copy-on-write planning views; the plan-local copy
// carries no security bookkeeping because plans never read it).
func (cs *clusterState) clone() *clusterState {
	out := &clusterState{
		members: make([]ids.NodeID, len(cs.members)),
		byz:     cs.byz,
	}
	copy(out.members, cs.members)
	return out
}

// Stats accumulates protocol-lifetime counters and security high-water
// marks.
type Stats struct {
	Joins, Leaves, Splits, Merges int64
	// Rejoins counts re-insertions of merge-displaced nodes; each is also
	// counted in Joins (a rejoin executes the Join operation).
	Rejoins int64
	// Swaps counts individual node exchanges.
	Swaps int64
	// HijackedWalks counts walks redirected through captured clusters.
	HijackedWalks int64
	// DegradedEvents / CapturedEvents count transitions of a cluster into
	// the >=1/3-Byzantine and >=1/2-Byzantine states. These are the
	// security failures whose absence Theorem 3 guarantees.
	DegradedEvents, CapturedEvents int64
	// MaxByzFractionEver is the worst per-cluster Byzantine fraction
	// observed at any point in the run.
	MaxByzFractionEver float64
}

// accumulate folds per-operation deltas (from the op scheduler) into the
// lifetime counters. High-water fields are not deltas and are settled
// separately at batch boundaries.
func (s *Stats) accumulate(d Stats) {
	s.Joins += d.Joins
	s.Leaves += d.Leaves
	s.Splits += d.Splits
	s.Merges += d.Merges
	s.Rejoins += d.Rejoins
	s.Swaps += d.Swaps
	s.HijackedWalks += d.HijackedWalks
}

// hijackProxy lets the adversary be installed after World construction:
// walker configs capture the proxy once and read whatever hook is current.
// Installation must not happen during a world operation; Redirect calls
// made while a batch plans are pure reads under the hook contract
// (hooks.go).
type hijackProxy struct {
	h walk.Hijacker
}

func (p *hijackProxy) Redirect(r *xrand.Rand, at ids.ClusterID) (ids.ClusterID, bool) {
	if p.h == nil {
		return 0, false
	}
	return p.h.Redirect(r, at)
}

func (p *hijackProxy) set(h walk.Hijacker) { p.h = h }

// clusterArena is the world's cluster-keyed state: a dense slot-indexed
// arena of cluster records plus every index derived from them (the size
// multiset with its max tracker, the insecure counters, the settle queue).
//
// Cluster c lives at slot c. Cluster IDs are minted densely and never
// reused, so the slots fill 0,1,2,... with no gaps and one slot belongs to
// exactly one cluster ID for the lifetime of the world; ascending slot
// order IS ascending ClusterID order, which is what keeps every walk over
// the arena deterministic without sorting.
type clusterArena struct {
	// clusters is the cluster arena; nil = retired or not yet minted.
	clusters []*clusterState
	// free holds retired records (capacity retained) for put.
	free []*clusterState

	// sizeCount is the cluster-size multiset — sizeCount[s] = number of
	// clusters of size s — with maxSize as its tracked maximum. The dense
	// int-indexed layout makes the stale-max recompute an exact scan-down
	// (no deleted-entry ordering hazards: the count for every size is
	// always addressable).
	sizeCount []int32
	maxSize   int

	// degraded/captured count clusters whose live class is >= Degraded
	// resp. == Captured, so CurrentInsecure is O(1).
	degraded, captured int

	// dirtySlots queues slots whose record changed since the last settle
	// pass, deduplicated by clusterState.dirty.
	dirtySlots []int32
}

// cluster returns the record for c, or nil when c is not a live cluster.
func (a *clusterArena) cluster(c ids.ClusterID) *clusterState {
	if uint64(c) >= uint64(len(a.clusters)) {
		return nil
	}
	return a.clusters[c]
}

// noteSizeChange updates the size multiset and max-size tracker for a
// cluster moving from size from to size to.
func (a *clusterArena) noteSizeChange(from, to int) {
	if from == to {
		return
	}
	if from > 0 {
		a.sizeCount[from]--
	}
	if to > 0 {
		if to >= len(a.sizeCount) {
			a.sizeCount = append(a.sizeCount, make([]int32, to+1-len(a.sizeCount))...)
		}
		a.sizeCount[to]++
	}
	if to > a.maxSize {
		a.maxSize = to
	} else if from == a.maxSize && a.sizeCount[from] == 0 {
		// The (possibly unique) largest cluster shrank: scan down to the
		// next occupied size. The multiset is dense, so the scan is exact
		// by construction — there is no "entry already deleted" state for
		// the recompute to mis-read.
		m := from
		for m > 0 && a.sizeCount[m] == 0 {
			m--
		}
		a.maxSize = m
	}
}

// markDirty queues c's record for the next settleSecurity pass.
func (a *clusterArena) markDirty(c ids.ClusterID, cs *clusterState) {
	if cs.dirty {
		return
	}
	cs.dirty = true
	a.dirtySlots = append(a.dirtySlots, int32(c))
}

// reclassify recomputes a record's live security class after a membership
// or allegiance change, maintaining the insecure counters. Event counters
// are NOT advanced here — transients inside one operation are not time
// step states; settleSecurity handles accounting at operation boundaries.
func (a *clusterArena) reclassify(cs *clusterState) {
	now := randnum.Secure
	if len(cs.members) > 0 {
		now = randnum.Classify(len(cs.members), cs.byz)
	}
	if now == cs.sec {
		return
	}
	if cs.sec >= randnum.Degraded {
		a.degraded--
	}
	if cs.sec == randnum.Captured {
		a.captured--
	}
	if now >= randnum.Degraded {
		a.degraded++
	}
	if now == randnum.Captured {
		a.captured++
	}
	cs.sec = now
}

// put installs a fresh cluster record for c, recycling a retired record
// (with its member capacity) when the free list has one.
func (a *clusterArena) put(c ids.ClusterID) {
	for uint64(len(a.clusters)) <= uint64(c) {
		a.clusters = append(a.clusters, nil)
	}
	var cs *clusterState
	if n := len(a.free); n > 0 {
		cs, a.free = a.free[n-1], a.free[:n-1]
	} else {
		cs = &clusterState{}
	}
	a.clusters[c] = cs
}

// retire removes c's record from the arena and returns it — reset,
// capacity retained — to the free list, reporting whether c was live.
func (a *clusterArena) retire(c ids.ClusterID) bool {
	cs := a.cluster(c)
	if cs == nil {
		return false
	}
	a.noteSizeChange(len(cs.members), 0)
	cs.members = cs.members[:0]
	cs.byz = 0
	a.reclassify(cs) // live class -> Secure, counters updated
	cs.settled = randnum.Secure
	// Any dirtySlots entry for this slot now points at a nil record and is
	// skipped by the settle pass; the flag must clear here so the recycled
	// record re-queues cleanly at its next home.
	cs.dirty = false
	a.clusters[c] = nil
	a.free = append(a.free, cs)
	return true
}

// insert adds x (allegiance byz) to cluster c, updating the size multiset
// and live security class. It does not touch the node index.
func (a *clusterArena) insert(c ids.ClusterID, x ids.NodeID, byz bool) error {
	cs := a.cluster(c)
	if cs == nil {
		return fmt.Errorf("core: insert into unknown cluster %v", c)
	}
	a.noteSizeChange(len(cs.members), len(cs.members)+1)
	cs.add(x, byz)
	a.reclassify(cs)
	a.markDirty(c, cs)
	return nil
}

// remove takes x out of c, updating the size multiset and live security
// class. It does not touch the node index.
func (a *clusterArena) remove(c ids.ClusterID, x ids.NodeID, byz bool) error {
	cs := a.cluster(c)
	if cs == nil {
		return fmt.Errorf("core: remove from unknown cluster %v", c)
	}
	n := len(cs.members)
	if err := cs.remove(x, byz); err != nil {
		return err
	}
	a.noteSizeChange(n, n-1)
	a.reclassify(cs)
	a.markDirty(c, cs)
	return nil
}

// World is the complete NOW protocol state. It is not safe for concurrent
// use: the paper's model is synchronous, and both the classic
// per-operation API (Join/Leave/...) and the op scheduler (ExecBatch) run
// on the caller's goroutine.
type World struct {
	cfg     Config
	led     *metrics.Ledger
	rng     *xrand.Rand
	walkCfg walk.Config

	arena     clusterArena
	nClusters int
	overlay   *over.Overlay

	// nodes is the node index: a dense NodeID-indexed arena of node
	// records (node IDs are minted densely and never reused, mirroring the
	// cluster arena's slot scheme); nodeCount counts the present ones.
	nodes     []nodeInfo
	nodeCount int

	nodeAlloc ids.NodeAllocator
	clAlloc   ids.ClusterAllocator

	// Flat node indexes for O(1) uniform sampling by workloads. nodePos
	// and byzPos are NodeID-indexed position arrays (-1 = absent), dense
	// for the same reason the arenas are: IDs are minted densely and never
	// reused. The op scheduler updates them in op order, so their ordering
	// (which seeds RandomNode draws) stays deterministic.
	allNodes []ids.NodeID
	nodePos  []int32
	byzNodes []ids.NodeID
	byzPos   []int32

	walker *walk.Walker
	exch   *exchange.Exchanger
	hijack *hijackProxy
	steer  func(ids.ClusterID) float64

	// hijackHook/steerHook are the installed hooks' batch lifecycles
	// (BatchHook side of SetHijacker / SetSteerHook), driven by ExecBatch:
	// BeginBatch before planning, CommitOp in op order after apply. See
	// hooks.go.
	hijackHook BatchHook
	steerHook  BatchHook

	pendingRejoin []ids.NodeID
	rejoinByz     map[ids.NodeID]bool
	stats         Stats
	bootstrapped  bool

	// sched holds the pooled scratch of the batch scheduler (plan records,
	// RNG substreams, plan machinery); ExecBatch alone touches it.
	sched schedScratch
}

// Interface compliance: the world is the topology the primitives run over.
var (
	_ walk.Topology  = (*World)(nil)
	_ exchange.World = (*World)(nil)
)

// NewWorld returns an empty world; call Bootstrap before operations.
func NewWorld(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ov, err := over.New(over.Params{
		TargetDegree: cfg.TargetDegree(),
		DegreeCap:    cfg.DegreeCap(),
		DegreeFloor:  cfg.DegreeFloor(),
		Repair:       cfg.OverlayRepair,
	})
	if err != nil {
		return nil, err
	}
	w := &World{
		cfg:       cfg,
		led:       &metrics.Ledger{},
		rng:       xrand.New(cfg.Seed),
		overlay:   ov,
		rejoinByz: make(map[ids.NodeID]bool),
		hijack:    &hijackProxy{},
	}
	w.walkCfg = walk.Config{
		DurationFactor: cfg.WalkDurationFactor,
		MaxRestarts:    cfg.MaxWalkRestarts,
		Gen:            cfg.Generator,
		Hijack:         w.hijack,
		Steer:          func(c ids.ClusterID) float64 { return w.steerScore(c) },
	}
	walker, err := walk.NewWalker(w.walkCfg, w)
	if err != nil {
		return nil, err
	}
	w.walker = walker
	exch, err := exchange.New(w, walker, cfg.Generator)
	if err != nil {
		return nil, err
	}
	w.exch = exch
	if w.sched.ctx, err = newPlanContext(w); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *World) steerScore(c ids.ClusterID) float64 {
	if w.steer == nil {
		return 0
	}
	return w.steer(c)
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Ledger returns the world's cost ledger.
func (w *World) Ledger() *metrics.Ledger { return w.led }

// Stats returns the lifetime counters.
func (w *World) Stats() Stats { return w.stats }

// --- arena access ---

func (w *World) hasCluster(c ids.ClusterID) bool { return w.arena.cluster(c) != nil }

// putCluster installs a fresh cluster record for c. Serial structural
// contexts only (bootstrap, split, merge): the op scheduler defers every
// structural plan to its tail.
func (w *World) putCluster(c ids.ClusterID) {
	w.arena.put(c)
	w.nClusters++
}

// snapshotClusterInto copies c's record into dst, reusing dst's member
// capacity, so the planner's copy-on-write snapshot is allocation-free in
// steady state.
func (w *World) snapshotClusterInto(c ids.ClusterID, dst *clusterState) bool {
	cs := w.arena.cluster(c)
	if cs == nil {
		return false
	}
	dst.members = append(dst.members[:0], cs.members...)
	dst.byz = cs.byz
	return true
}

func (w *World) nodeInfoOf(x ids.NodeID) (nodeInfo, bool) {
	var info nodeInfo
	if uint64(x) < uint64(len(w.nodes)) {
		info = w.nodes[x]
	}
	return info, info.present
}

func (w *World) setNodeInfo(x ids.NodeID, info nodeInfo) {
	info.present = true
	for uint64(len(w.nodes)) <= uint64(x) {
		w.nodes = append(w.nodes, nodeInfo{})
	}
	if !w.nodes[x].present {
		w.nodeCount++
	}
	w.nodes[x] = info
}

func (w *World) deleteNodeInfo(x ids.NodeID) {
	if uint64(x) < uint64(len(w.nodes)) && w.nodes[x].present {
		w.nodes[x] = nodeInfo{}
		w.nodeCount--
	}
}

// --- walk.Topology ---

// NumClusters implements walk.Topology.
func (w *World) NumClusters() int { return w.nClusters }

// NumOverlayEdges implements walk.Topology.
func (w *World) NumOverlayEdges() int { return w.overlay.NumEdges() }

// Degree implements walk.Topology.
func (w *World) Degree(c ids.ClusterID) int { return w.overlay.Degree(c) }

// NeighborAt implements walk.Topology.
func (w *World) NeighborAt(c ids.ClusterID, i int) ids.ClusterID { return w.overlay.NeighborAt(c, i) }

// Size implements walk.Topology.
func (w *World) Size(c ids.ClusterID) int {
	if cs := w.arena.cluster(c); cs != nil {
		return len(cs.members)
	}
	return 0
}

// Byz implements walk.Topology.
func (w *World) Byz(c ids.ClusterID) int {
	if cs := w.arena.cluster(c); cs != nil {
		return cs.byz
	}
	return 0
}

// MaxClusterSize implements walk.Topology.
func (w *World) MaxClusterSize() int { return w.arena.maxSize }

// --- exchange.World ---

// MemberAt implements exchange.World.
func (w *World) MemberAt(c ids.ClusterID, i int) ids.NodeID {
	return w.arena.cluster(c).members[i]
}

// Members implements exchange.World (snapshot copy).
func (w *World) Members(c ids.ClusterID) []ids.NodeID {
	cs := w.arena.cluster(c)
	if cs == nil {
		return nil
	}
	out := make([]ids.NodeID, len(cs.members))
	copy(out, cs.members)
	return out
}

// Transfer implements exchange.World: move x between clusters with all
// bookkeeping (membership, Byzantine counts, size multiset, security
// classification).
func (w *World) Transfer(x ids.NodeID, from, to ids.ClusterID) error {
	info, ok := w.nodeInfoOf(x)
	if !ok {
		return fmt.Errorf("core: transfer of unknown node %v", x)
	}
	if info.cluster != from {
		return fmt.Errorf("core: node %v is in %v, not %v", x, info.cluster, from)
	}
	if !w.hasCluster(from) {
		return fmt.Errorf("core: transfer from unknown cluster %v", from)
	}
	if !w.hasCluster(to) {
		return fmt.Errorf("core: transfer to unknown cluster %v", to)
	}
	if err := w.applyTransfer(x, from, to, info.byz); err != nil {
		return err
	}
	w.stats.Swaps++
	return nil
}

// applyTransfer performs the raw cluster-and-node-record relocation without
// validation or swap accounting. Used by Transfer and by the scheduler's
// apply phase (where admitted plans guarantee validity and stats come from
// the plan deltas).
func (w *World) applyTransfer(x ids.NodeID, from, to ids.ClusterID, byz bool) error {
	if err := w.arena.remove(from, x, byz); err != nil {
		return err
	}
	if err := w.arena.insert(to, x, byz); err != nil {
		return err
	}
	w.setNodeInfo(x, nodeInfo{cluster: to, byz: byz})
	return nil
}

// --- bookkeeping helpers ---

// settleSecurity advances the security accounting to the current state:
// called at the end of every public operation (= paper time step) and at
// the end of every scheduler batch. It counts transitions into the
// degraded (>= 1/3) and captured (>= 1/2) states and tracks the worst
// per-cluster Byzantine fraction.
//
// Only records that changed since the last pass are visited: an unchanged
// cluster's class equals its settled class (no transition to count) and
// its Byzantine fraction was already folded into the monotone
// MaxByzFractionEver when it last changed, so the dirty-only walk is
// fold-for-fold identical to the full scan it replaces.
func (w *World) settleSecurity() {
	a := &w.arena
	// Ascending slot order = ascending ClusterID: the folds below are
	// commutative today, but the settled-transition accounting is exactly
	// the kind of logic that grows order-sensitive branches; fixing the
	// order keeps the whole pass trivially deterministic (and
	// nowlint-clean), exactly like the sorted map walk it replaces.
	slices.Sort(a.dirtySlots)
	for _, slot := range a.dirtySlots {
		cs := a.clusters[slot]
		if cs == nil {
			continue // retired after it was queued
		}
		cs.dirty = false
		size := len(cs.members)
		if size == 0 {
			cs.settled = randnum.Secure
			continue
		}
		if frac := float64(cs.byz) / float64(size); frac > w.stats.MaxByzFractionEver {
			w.stats.MaxByzFractionEver = frac
		}
		now := cs.sec
		prev := cs.settled
		if now > prev {
			if now >= randnum.Degraded && prev < randnum.Degraded {
				w.stats.DegradedEvents++
			}
			if now == randnum.Captured && prev < randnum.Captured {
				w.stats.CapturedEvents++
			}
		}
		cs.settled = now
	}
	a.dirtySlots = a.dirtySlots[:0]
}

// samplePos returns x's position in the flat sampling index, -1 if absent.
func (w *World) samplePos(x ids.NodeID) int32 {
	if int(x) >= len(w.nodePos) {
		return -1
	}
	return w.nodePos[x]
}

// byzSamplePos returns x's position in the Byzantine sampling index, -1 if
// absent.
func (w *World) byzSamplePos(x ids.NodeID) int32 {
	if int(x) >= len(w.byzPos) {
		return -1
	}
	return w.byzPos[x]
}

// growPos extends a NodeID-indexed position array to cover x, filling new
// entries with the absent marker.
func growPos(pos []int32, x ids.NodeID) []int32 {
	for int(x) >= len(pos) {
		pos = append(pos, -1)
	}
	return pos
}

// sampleAdd appends a node to the flat sampling indexes. Serial contexts
// only (classic ops and the scheduler's op-ordered post-pass): the append
// order seeds RandomNode draws and must stay deterministic.
func (w *World) sampleAdd(x ids.NodeID, byz bool) {
	w.nodePos = growPos(w.nodePos, x)
	w.nodePos[x] = int32(len(w.allNodes))
	w.allNodes = append(w.allNodes, x)
	if byz {
		w.byzPos = growPos(w.byzPos, x)
		w.byzPos[x] = int32(len(w.byzNodes))
		w.byzNodes = append(w.byzNodes, x)
	}
}

// sampleRemove swap-removes a node from the flat sampling indexes. Serial
// contexts only.
func (w *World) sampleRemove(x ids.NodeID, byz bool) {
	i := w.nodePos[x]
	last := len(w.allNodes) - 1
	moved := w.allNodes[last]
	w.allNodes[i] = moved
	w.nodePos[moved] = i
	w.allNodes = w.allNodes[:last]
	w.nodePos[x] = -1
	if byz {
		j := w.byzPos[x]
		lastB := len(w.byzNodes) - 1
		movedB := w.byzNodes[lastB]
		w.byzNodes[j] = movedB
		w.byzPos[movedB] = j
		w.byzNodes = w.byzNodes[:lastB]
		w.byzPos[x] = -1
	}
}

// registerNode inserts a brand-new (or rejoining) node record into the
// node index and the flat sampling indexes.
func (w *World) registerNode(x ids.NodeID, byz bool, c ids.ClusterID) {
	w.setNodeInfo(x, nodeInfo{cluster: c, byz: byz})
	w.sampleAdd(x, byz)
}

// unregisterNode removes a node record from the node index and the flat
// sampling indexes.
func (w *World) unregisterNode(x ids.NodeID) {
	info, _ := w.nodeInfoOf(x)
	w.deleteNodeInfo(x)
	w.sampleRemove(x, info.byz)
}

// --- public read accessors ---

// NumNodes returns the current network size n.
func (w *World) NumNodes() int { return len(w.allNodes) }

// NumByzantine returns the number of Byzantine nodes currently present.
func (w *World) NumByzantine() int { return len(w.byzNodes) }

// Clusters returns the current cluster IDs (overlay insertion order).
func (w *World) Clusters() []ids.ClusterID { return w.overlay.Vertices() }

// ClusterOf returns the cluster containing x.
func (w *World) ClusterOf(x ids.NodeID) (ids.ClusterID, bool) {
	info, ok := w.nodeInfoOf(x)
	return info.cluster, ok
}

// IsByzantine reports whether x is adversary-controlled.
func (w *World) IsByzantine(x ids.NodeID) bool {
	info, _ := w.nodeInfoOf(x)
	return info.byz
}

// Contains reports whether x is currently in the network.
func (w *World) Contains(x ids.NodeID) bool {
	_, ok := w.nodeInfoOf(x)
	return ok
}

// RandomNode returns a uniform member of the network.
func (w *World) RandomNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(w.allNodes) == 0 {
		return 0, false
	}
	return w.allNodes[r.Intn(len(w.allNodes))], true
}

// RandomHonestNode returns a uniform honest member (rejection sampling;
// honest nodes are a >2/3 majority so this terminates fast).
func (w *World) RandomHonestNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(w.allNodes) == len(w.byzNodes) {
		return 0, false
	}
	for {
		x := w.allNodes[r.Intn(len(w.allNodes))]
		if !w.IsByzantine(x) {
			return x, true
		}
	}
}

// RandomByzantineNode returns a uniform Byzantine member.
func (w *World) RandomByzantineNode(r *xrand.Rand) (ids.NodeID, bool) {
	if len(w.byzNodes) == 0 {
		return 0, false
	}
	return w.byzNodes[r.Intn(len(w.byzNodes))], true
}

// RandomCluster returns a uniform cluster ID (used for join contacts).
func (w *World) RandomCluster(r *xrand.Rand) (ids.ClusterID, bool) {
	n := w.overlay.NumVertices()
	if n == 0 {
		return 0, false
	}
	return w.overlay.VertexAt(r.Intn(n)), true
}

// CurrentInsecure returns the number of clusters presently at or above
// the 1/3 (degraded) and 1/2 (captured) Byzantine thresholds, maintained
// incrementally so the check is O(1).
func (w *World) CurrentInsecure() (degraded, captured int) {
	return w.arena.degraded, w.arena.captured
}

// Overlay exposes the OVER overlay for structural analysis. Callers must
// not mutate it.
func (w *World) Overlay() *over.Overlay { return w.overlay }

// Rng exposes the world's random stream for workloads that must share the
// run's determinism.
func (w *World) Rng() *xrand.Rand { return w.rng }

// Walker exposes the world's CTRW walker so applications (sampling,
// overlay maintenance by embedders) can run walks over the live topology.
func (w *World) Walker() *walk.Walker { return w.walker }

// Generator exposes the configured randNum construction.
func (w *World) Generator() randnum.Generator { return w.cfg.Generator }

// PendingRejoins drains the queue of nodes displaced by MergeRejoinAll;
// the simulator re-joins them on subsequent time steps.
func (w *World) PendingRejoins() []ids.NodeID {
	out := w.pendingRejoin
	w.pendingRejoin = nil
	return out
}

// NodeIsQueued reports whether x awaits rejoin (MergeRejoinAll only).
func (w *World) NodeIsQueued(x ids.NodeID) bool {
	_, ok := w.rejoinByz[x]
	return ok
}
