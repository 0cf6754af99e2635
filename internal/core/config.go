// Package core implements NOW (Neighbors On Watch), the paper's primary
// contribution: a protocol maintaining a partition of the nodes into
// clusters of size Theta(log N), each more than two thirds honest w.h.p.,
// on top of the OVER expander overlay, while the network size varies
// polynomially (sqrt(N) <= n <= N) under a Byzantine adversary controlling
// a fraction tau <= 1/3 - epsilon of the nodes.
//
// The World type holds the full protocol state (partition + overlay +
// honesty bookkeeping) and exposes the paper's operations: Bootstrap
// (initialization phase, section 3.2) and Join / Leave with their induced
// Split / Merge (maintenance phase, section 3.3). Every operation executes
// the real protocol machinery — biased CTRWs, cluster-agreed randomness,
// full-cluster exchanges, overlay surgery — with communication costs
// charged to a ledger per the paper's accounting rules.
package core

import (
	"fmt"
	"math"

	"nowover/internal/randnum"
)

// MergeStrategy selects between the paper's mutually inconsistent
// descriptions of the merge operation (section 3.3 prose vs Figure 2 vs
// Algorithm 2); see DESIGN.md.
type MergeStrategy int

const (
	// MergeAbsorbRandom (default, section 3.3 prose): randCl picks a
	// random cluster C', C' leaves the overlay — satisfying OVER's
	// random-removal assumption — and its members are absorbed into the
	// undersized cluster, which then exchanges all its nodes.
	MergeAbsorbRandom MergeStrategy = iota
	// MergeRejoinAll (Algorithm 2): the undersized cluster itself leaves
	// the overlay and its members re-join the network individually via
	// Join operations on subsequent time steps.
	MergeRejoinAll
)

// String implements fmt.Stringer.
func (m MergeStrategy) String() string {
	switch m {
	case MergeAbsorbRandom:
		return "absorb-random"
	case MergeRejoinAll:
		return "rejoin-all"
	default:
		return fmt.Sprintf("merge(%d)", int(m))
	}
}

// Config parameterizes a NOW world. DefaultConfig supplies paper-faithful
// settings; zero values are rejected by validation so misconfiguration is
// loud.
type Config struct {
	// N is the maximum network size (the paper's name-space bound); the
	// live size n is expected to stay within [sqrt(N), N].
	N int
	// Seed drives all protocol randomness; equal seeds reproduce runs.
	Seed uint64

	// K is the cluster-size security parameter: clusters target K*log2(N)
	// members. Higher K lowers the adversary's per-cluster success
	// probability at higher per-operation cost (paper section 3.2).
	K float64
	// L is the split/merge slack (paper's l > sqrt(2)): a cluster splits
	// above K*L*log2(N) members and merges below K*log2(N)/L.
	L float64

	// Alpha is the overlay degree exponent: target degree is
	// DegreeFactor * log2(N)^(1+Alpha) (OVER Property 2).
	Alpha float64
	// DegreeFactor scales the overlay target degree.
	DegreeFactor float64
	// DegreeCapFactor sets the hard maximum degree as a multiple of the
	// target degree (Property 2's constant c).
	DegreeCapFactor float64

	// WalkDurationFactor scales CTRW segment durations (expected hops
	// ~ factor * log2(#C)^2, the paper's O(log^2 n) walk length).
	WalkDurationFactor float64
	// MaxWalkRestarts bounds randCl rejection restarts.
	MaxWalkRestarts int

	// Generator is the randNum construction (Ideal or CommitReveal).
	Generator randnum.Generator

	// MergeStrategy resolves the paper's merge ambiguity.
	MergeStrategy MergeStrategy
	// LeaveCascade enables the second-level exchanges on Leave required by
	// the Theorem 3 proof ("we enforce C' to exchange all its nodes").
	// Disabling it is an ablation.
	LeaveCascade bool
	// GroupedCascade batches the leave cascade into ONE grouped shuffle
	// round over the receiver set — one swap per receiver, partners drawn
	// from the round's own pool, all draws on one stream (see
	// exchange.CascadeRound) — instead of a full exchange per receiver,
	// shrinking a leave's write footprint from ~|C|^2 to ~|C| clusters
	// and its round cost by the cluster size. Cascade traffic is charged
	// to metrics.ClassCascade. Only meaningful with LeaveCascade; false
	// keeps Algorithm 2's per-receiver cascade byte-identically.
	GroupedCascade bool
	// ExchangeOnJoin enables the full-cluster exchange after an insertion
	// (section 3.3 Join). Disabling it is an ablation that reproduces the
	// attack motivating shuffling.
	ExchangeOnJoin bool
	// ExchangeOnLeave enables the full-cluster exchange after a departure
	// (section 3.3 Leave / Algorithm 2). Disabling it together with
	// ExchangeOnJoin yields the fully shuffle-less strawman of section
	// 3.3, against which the join-leave attack ratchets Byzantine mass
	// into its target unimpeded.
	ExchangeOnLeave bool
	// OverlayRepair enables OVER's post-removal degree repair.
	OverlayRepair bool
	// EdgeAttemptFactor bounds edge-placement walk attempts per requested
	// edge in OVER Add/Remove.
	EdgeAttemptFactor int
}

// DefaultConfig returns paper-faithful parameters for maximum size n,
// including Algorithm 2's per-receiver leave cascade (GroupedCascade
// false).
func DefaultConfig(maxN int) Config {
	return Config{
		N:                  maxN,
		Seed:               1,
		K:                  2,
		L:                  2,
		Alpha:              0.25,
		DegreeFactor:       1,
		DegreeCapFactor:    3,
		WalkDurationFactor: 0.5,
		MaxWalkRestarts:    32,
		Generator:          randnum.Ideal{},
		MergeStrategy:      MergeAbsorbRandom,
		LeaveCascade:       true,
		ExchangeOnJoin:     true,
		ExchangeOnLeave:    true,
		OverlayRepair:      true,
		EdgeAttemptFactor:  4,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.N < 16:
		return fmt.Errorf("core: N=%d too small (min 16)", c.N)
	case c.K <= 0:
		return fmt.Errorf("core: K=%v must be positive", c.K)
	case c.L <= math.Sqrt2:
		return fmt.Errorf("core: L=%v must exceed sqrt(2)", c.L)
	case c.Alpha < 0:
		return fmt.Errorf("core: Alpha=%v must be non-negative", c.Alpha)
	case c.DegreeFactor <= 0:
		return fmt.Errorf("core: DegreeFactor=%v must be positive", c.DegreeFactor)
	case c.DegreeCapFactor < 1:
		return fmt.Errorf("core: DegreeCapFactor=%v must be >= 1", c.DegreeCapFactor)
	case c.WalkDurationFactor <= 0:
		return fmt.Errorf("core: WalkDurationFactor=%v must be positive", c.WalkDurationFactor)
	case c.MaxWalkRestarts < 1:
		return fmt.Errorf("core: MaxWalkRestarts=%d must be >= 1", c.MaxWalkRestarts)
	case c.Generator == nil:
		return fmt.Errorf("core: nil Generator")
	case c.EdgeAttemptFactor < 1:
		return fmt.Errorf("core: EdgeAttemptFactor=%d must be >= 1", c.EdgeAttemptFactor)
	}
	return nil
}

// LogN returns log2(N), the paper's ubiquitous scale factor.
func (c Config) LogN() float64 { return math.Log2(float64(c.N)) }

// TargetClusterSize returns K*log2(N) rounded to the nearest integer,
// minimum 3 (a cluster must be able to out-vote one traitor).
func (c Config) TargetClusterSize() int {
	s := int(math.Round(c.K * c.LogN()))
	if s < 3 {
		s = 3
	}
	return s
}

// SplitThreshold returns the size above which a cluster splits.
func (c Config) SplitThreshold() int {
	return int(math.Round(c.K * c.L * c.LogN()))
}

// MergeThreshold returns the size below which a cluster merges.
func (c Config) MergeThreshold() int {
	t := int(math.Round(c.K * c.LogN() / c.L))
	if t < 2 {
		t = 2
	}
	return t
}

// TargetDegree returns OVER's target overlay degree
// DegreeFactor*log2(N)^(1+Alpha), minimum 3.
func (c Config) TargetDegree() int {
	d := int(math.Round(c.DegreeFactor * math.Pow(c.LogN(), 1+c.Alpha)))
	if d < 3 {
		d = 3
	}
	return d
}

// DegreeCap returns OVER's hard maximum degree.
func (c Config) DegreeCap() int {
	return int(math.Round(c.DegreeCapFactor * float64(c.TargetDegree())))
}

// DegreeFloor returns OVER's repair floor (half the target).
func (c Config) DegreeFloor() int {
	f := c.TargetDegree() / 2
	if f < 2 {
		f = 2
	}
	return f
}
