// Package core implements the paper's contribution: the resource demand
// aware (RDA) scheduling extension of §3. It sits on top of the default
// scheduler (internal/machine's fluid fair-sharing model, standing in for
// Linux 4.6.0 CFS) and decides, at every progress-period boundary, whether
// the entering thread may run or must pause on a wait queue until other
// periods release enough of the shared last-level cache.
//
// The three components of Figure 2 map onto this package as follows:
//
//   - progress monitor  → Scheduler's period registry + waitlist
//   - resource monitor  → ResourceMonitor (per-resource load table)
//   - scheduling predicate → Policy + Scheduler.TrySchedule (Algorithm 1)
package core

import (
	"fmt"

	"rdasched/internal/pp"
)

// Policy is the reconfigurable scheduling policy of §3.3: it judges
// whether a progress period may start, given the space that would remain
// free after admitting it. outcome = remaining - demand, so a negative
// outcome means the resource would be oversubscribed by that many bytes.
type Policy interface {
	// Name identifies the policy in reports ("default", "strict",
	// "compromise").
	Name() string
	// Allows reports whether a period may run when admitting it leaves
	// `outcome` bytes free (negative = oversubscription) on a resource of
	// the given capacity. It must be a pure function of its arguments:
	// the cross-domain steal pass skips re-probing shards whose monitor
	// state has not changed (see stealMemo).
	Allows(outcome, capacity pp.Bytes) bool
}

// StrictPolicy is RDA:Strict — "denies any process from running if the
// additional resource demand will put a hardware resource above maximum
// capacity". It maximizes resource efficiency at the cost of concurrency.
type StrictPolicy struct{}

// Name implements Policy.
func (StrictPolicy) Name() string { return "strict" }

// Allows implements Policy: the demand must fit entirely.
func (StrictPolicy) Allows(outcome, capacity pp.Bytes) bool { return outcome >= 0 }

// CompromisePolicy is RDA:Compromise — it admits a period as long as the
// resulting usage stays within Factor times the capacity, trading some
// cache efficiency for concurrency. The paper configures Factor = 2.
type CompromisePolicy struct {
	// Factor is the oversubscription factor x: usage may reach
	// x·capacity.
	Factor float64
}

// DefaultCompromiseFactor is the paper's configured oversubscription
// factor ("we have configured the oversubscription factor to be 2").
const DefaultCompromiseFactor = 2.0

// NewCompromise returns the policy with the paper's factor.
func NewCompromise() CompromisePolicy {
	return CompromisePolicy{Factor: DefaultCompromiseFactor}
}

// Name implements Policy.
func (p CompromisePolicy) Name() string { return "compromise" }

// Allows implements Policy: usage after admission (capacity - outcome)
// must not exceed Factor·capacity, i.e. outcome ≥ -(Factor-1)·capacity.
func (p CompromisePolicy) Allows(outcome, capacity pp.Bytes) bool {
	f := p.Factor
	if f < 1 {
		f = 1
	}
	slack := pp.Bytes(float64(capacity) * (f - 1))
	return outcome >= -slack
}

// AlwaysPolicy admits everything — it reduces RDA to the underlying
// default scheduler and serves as the baseline configuration in the
// experiments (and as an explicit opt-out for specific resources).
type AlwaysPolicy struct{}

// Name implements Policy.
func (AlwaysPolicy) Name() string { return "default" }

// Allows implements Policy.
func (AlwaysPolicy) Allows(outcome, capacity pp.Bytes) bool { return true }

// PolicyByName resolves the command-line names used by cmd/rdasched and
// cmd/experiments.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "strict":
		return StrictPolicy{}, nil
	case "compromise":
		return NewCompromise(), nil
	case "default", "always":
		return AlwaysPolicy{}, nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (want strict, compromise, or default)", name)
	}
}
