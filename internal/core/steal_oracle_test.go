package core

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"rdasched/internal/sim"
)

// sortStealPass is the steal pass as it was before min-selection and
// the memo, kept verbatim as the differential oracle: each pass collects
// every aged waiter of every online shard, stable-sorts them by
// (enqueuedAt, src, ticket), and migrates the first one some other
// domain admits, probing every shard each time.
func (d *DomainSet) sortStealPass(age sim.Duration) {
	for {
		now := d.clock()
		var cands []stealCandidate
		wait := sim.Duration(-1) // deficit until the next candidate ages
		for si, s := range d.shards {
			si, s := si, s
			if s.offline {
				continue
			}
			s.waitlist.Each(func(per *period, _ uint64) {
				if s.breakerBlocked(per.key.procID) {
					return
				}
				w := now.DurationSince(per.enqueuedAt)
				if w >= age {
					cands = append(cands, stealCandidate{per: per, src: si})
				} else if deficit := age - w; wait < 0 || deficit < wait {
					wait = deficit
				}
			})
		}
		sort.SliceStable(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.per.enqueuedAt != b.per.enqueuedAt {
				return a.per.enqueuedAt < b.per.enqueuedAt
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.per.ticket < b.per.ticket
		})
		moved := false
		for _, c := range cands {
			if di, ok := d.fitTarget(c.per, c.src, nil); ok {
				d.migrate(c.per, c.src, di, EventSteal)
				moved = true
				break
			}
		}
		if moved {
			continue
		}
		if wait >= 0 {
			d.armStealTick(wait)
		}
		return
	}
}

// stealFuzzCase derives a multi-domain run from fuzz inputs: 2–4
// domains, Strict or Compromise, steal ages from one picosecond to the
// default, and any mix of lease+deadline, governor with misdeclaration
// faults, and a crash+reintegration under any recovery mode (stall
// leaves the crashed shard's waiters in place, so reintegration hands
// the pass waiters it has never walked).
func stealFuzzCase(seed uint64, domains, polIdx, mode uint8) stealCase {
	policies := []Policy{StrictPolicy{}, NewCompromise()}
	ages := []sim.Duration{1, 10 * sim.Microsecond, 200 * sim.Microsecond, 0}
	return stealCase{
		name:     fmt.Sprintf("seed %d domains %d pol %d mode %#x", seed, domains, polIdx, mode),
		seed:     seed,
		domains:  2 + int(domains)%3,
		policy:   policies[int(polIdx)%len(policies)],
		stealAge: ages[int(polIdx>>1)%len(ages)],
		procs:    4 + int(seed%37),
		robust:   mode&1 != 0,
		governor: mode&2 != 0,
		crash:    mode&4 != 0,
		mode:     RecoveryMode(int(mode>>3) % 3),
	}
}

// checkStealMatchesSort runs one case under the steal pass and under the
// sort-based oracle and returns an error at the first decision where the
// two streams differ.
func checkStealMatchesSort(seed uint64, domains, polIdx, mode uint8) error {
	c := stealFuzzCase(seed, domains, polIdx, mode)
	got, err := c.events(false)
	if err != nil {
		return fmt.Errorf("%s: %v", c.name, err)
	}
	want, err := c.events(true)
	if err != nil {
		return fmt.Errorf("%s: oracle: %v", c.name, err)
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("%s: decision %d is %+v, oracle has %+v", c.name, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d decisions, oracle has %d", c.name, len(got), len(want))
	}
	return nil
}

// TestStealMatchesSort is the quick.Check sweep; FuzzStealMatchesSort
// explores further under `make fuzz` / CI.
func TestStealMatchesSort(t *testing.T) {
	f := func(seed uint64, domains, polIdx, mode uint8) bool {
		if err := checkStealMatchesSort(seed, domains, polIdx, mode); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzStealMatchesSort requires the steal pass and the sort-based oracle
// to produce identical decision streams; the seeds cover every domain
// count, both policies, every steal age, and each mode bit (lease and
// deadline, governor, crash under evacuate, stall and drop), plus a
// lease run that once panicked in ExitPhase.
func FuzzStealMatchesSort(f *testing.F) {
	for _, c := range []struct {
		seed                  uint64
		domains, polIdx, mode uint8
	}{
		{1, 0, 0, 0}, {2, 1, 1, 1}, {3, 2, 2, 0}, {4, 0, 3, 1},
		{5, 1, 4, 2}, {6, 2, 5, 3}, {7, 2, 6, 4}, {8, 1, 7, 5},
		{9, 2, 0, 4 | 1<<3}, {10, 0, 1, 5 | 1<<3}, {11, 1, 2, 4 | 2<<3},
		{12, 2, 4, 7 | 1<<3}, {^uint64(0), 2, 255, 255},
		{22, 36, 14, 1}, // a reclaimed thread's late end beside its re-opened key
	} {
		f.Add(c.seed, c.domains, c.polIdx, c.mode)
	}
	f.Fuzz(func(t *testing.T, seed uint64, domains, polIdx, mode uint8) {
		if err := checkStealMatchesSort(seed, domains, polIdx, mode); err != nil {
			t.Error(err)
		}
	})
}
