package core

// The adversary hook contract.
//
// Hijack and steer hooks are consulted from inside walks, and the op
// scheduler plans every op of a batch against the pre-batch snapshot
// before applying any of them — so hook DECISIONS and hook BOOKKEEPING
// live on opposite sides of a batch boundary:
//
//   - Phase 1 (plan): Redirect/Score calls are PURE reads. A hook may
//     read its own snapshot-scoped decision state (fixed before the batch
//     started) and the per-op substream handed to Redirect; it must not
//     write anything reachable from another op's calls, or one op's plan
//     would observe another's and the snapshot semantics would break. The
//     world is unchanged while the batch plans, so reading it (e.g. a
//     target liveness check) sees the pre-batch state too.
//   - Batch lifecycle: a hook that also implements BatchHook gets
//     BeginBatch before Phase 1 — the one place to re-validate or
//     re-fixate decision state against the pre-batch world — and CommitOp
//     once per op, in op order, after the batch's effects (admitted plans
//     and the tail) are all in place, folded alongside the scheduler's own
//     order-sensitive bookkeeping (sampling indexes, ledgers, stats).
//     Ratchet counters and budget spend belong here.
//
// Under this contract a hooked ExecBatch is a pure function of the world
// state and the batch, exactly like an unhooked one. The classic
// one-op-per-call path needs no lifecycle calls: it applies each op before
// the next, and the sim drivers refresh strategy state through Decide at
// every step boundary.

import (
	"nowover/internal/ids"
	"nowover/internal/walk"
)

// BatchHook is the lifecycle of an adversary hook across one ExecBatch
// call (one paper time step). Implemented optionally by the values passed
// to SetHijacker / SetSteerHook; a hook without it simply has no
// per-batch state to refresh or fold.
type BatchHook interface {
	// BeginBatch runs before Phase 1 plans, against the pre-batch world:
	// refresh the snapshot-scoped decision state the coming batch's
	// Redirect/Score calls will read.
	BeginBatch()
	// CommitOp runs once per batch op, in op order, after all of the
	// batch's effects are in place: op index i, whether the op succeeded,
	// and how many of its walks were hijacked. This is where hook
	// bookkeeping (ratchets, spend, counters) folds.
	CommitOp(i int, ok bool, hijacked int64)
}

// Steerer scores clusters by their value to the adversary, biasing
// last-revealer randomness (see walk.Config.Steer). Score is under the
// plan-phase purity contract above.
type Steerer interface {
	Score(c ids.ClusterID) float64
}

// SetHijacker installs (or clears) the adversary's captured-cluster walk
// redirection hook. Redirect must follow the plan-phase purity contract
// (see the package comment above and walk.Hijacker); if h also implements
// BatchHook, ExecBatch drives its lifecycle. Must not be called
// concurrently with world operations.
func (w *World) SetHijacker(h walk.Hijacker) {
	w.hijack.set(h)
	w.hijackHook = nil
	if bh, ok := h.(BatchHook); ok {
		w.hijackHook = bh
	}
}

// SetSteer installs (or clears) the adversary's scoring of clusters used
// to bias last-revealer randomness (only effective with a biasable
// generator). The function must be pure per the plan-phase contract; a
// steerer whose decision state needs per-batch refresh should come in
// through SetSteerHook instead (or be the already-registered hijacker, as
// with adversary.CapturedHijacker.Score).
func (w *World) SetSteer(f func(ids.ClusterID) float64) {
	w.steer = f
	w.steerHook = nil
}

// SetSteerHook installs h.Score as the steer function and, when h also
// implements BatchHook, registers its lifecycle with ExecBatch. When the
// same value is already installed as the hijacker its lifecycle runs
// once, not twice. Passing nil clears the steer hook.
func (w *World) SetSteerHook(h Steerer) {
	if h == nil {
		w.steer = nil
		w.steerHook = nil
		return
	}
	w.steer = h.Score
	w.steerHook = nil
	if bh, ok := h.(BatchHook); ok {
		w.steerHook = bh
	}
}

// hookLifecycles returns the registered batch lifecycles, hijacker first,
// deduplicated so one value serving as both hijacker and steerer commits
// once per op.
func (w *World) hookLifecycles() (hooks [2]BatchHook, n int) {
	if w.hijackHook != nil {
		hooks[n] = w.hijackHook
		n++
	}
	if w.steerHook != nil && w.steerHook != w.hijackHook {
		hooks[n] = w.steerHook
		n++
	}
	return hooks, n
}
