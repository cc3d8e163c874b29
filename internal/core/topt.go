package core

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// Membership classifies a group's relation to the top-t set.
type Membership int8

// Membership values.
const (
	// MemberUnknown means the confidence intervals cannot yet decide.
	MemberUnknown Membership = iota
	// MemberIn means the group is certainly among the top t.
	MemberIn
	// MemberOut means the group is certainly not among the top t.
	MemberOut
)

// String returns a short label for the membership state.
func (m Membership) String() string {
	switch m {
	case MemberIn:
		return "in"
	case MemberOut:
		return "out"
	default:
		return "unknown"
	}
}

// TopTResult extends Result with the membership classification of
// the top-t computation.
type TopTResult struct {
	Result
	// Members holds the indices of the top-t groups, ordered from largest
	// estimate down.
	Members []int
	// Membership is the final classification of every group.
	Membership []Membership
}

// TopT solves Problem 4 (AVG-ORDER-TOP-t): identify the t groups with the
// largest true means and order them correctly among themselves, with
// probability at least 1−δ. Groups stay active only while (a) their top-t
// membership is uncertain, or (b) they are certain members whose interval
// still overlaps another potential member's interval (so their relative
// order within the top-t is unresolved). Certain non-members stop being
// sampled immediately — the big saving when k is large and t small.
func TopT(u *dataset.Universe, rng *xrand.RNG, t int, opts Options) (*TopTResult, error) {
	if err := opts.validate(u); err != nil {
		return nil, err
	}
	k := u.K()
	if t <= 0 || t > k {
		return nil, fmt.Errorf("core: top-t requires 1 <= t <= k, got t=%d with k=%d", t, k)
	}
	membership := make([]Membership, k)
	los := make([]float64, k)
	his := make([]float64, k)
	toSettle := make([]int, 0, k)

	lp := newRoundLoop(u, rng, &opts, roundAlgo{
		notifyPartials: true,
		decide: func(lp *roundLoop) {
			// Classify membership from the current intervals.
			// certainlyAbove counts groups whose entire interval lies above
			// group i's interval; possiblyAbove counts groups that *might*
			// lie above it.
			for i := 0; i < k; i++ {
				w := lp.width(i)
				los[i], his[i] = lp.estimates[i]-w, lp.estimates[i]+w
			}
			for i := 0; i < k; i++ {
				if membership[i] != MemberUnknown {
					continue
				}
				certainlyAbove, possiblyAbove := 0, 0
				for j := 0; j < k; j++ {
					if j == i {
						continue
					}
					if los[j] > his[i] {
						certainlyAbove++
					}
					if his[j] > los[i] {
						possiblyAbove++
					}
				}
				if certainlyAbove >= t {
					membership[i] = MemberOut
				} else if possiblyAbove <= t-1 {
					membership[i] = MemberIn
				}
			}

			// Settle: certain non-members stop immediately; certain members
			// stop once their interval is disjoint from every other
			// potential member's interval (their in-set rank is then fixed).
			toSettle = toSettle[:0]
			for i := 0; i < k; i++ {
				if !lp.active[i] {
					continue
				}
				switch membership[i] {
				case MemberOut:
					toSettle = append(toSettle, i)
				case MemberIn:
					disjoint := true
					for j := 0; j < k; j++ {
						if j == i || membership[j] == MemberOut {
							continue
						}
						if los[i] <= his[j] && los[j] <= his[i] {
							disjoint = false
							break
						}
					}
					if disjoint {
						toSettle = append(toSettle, i)
					}
				}
			}
			for _, i := range toSettle {
				lp.settle(i, lp.groupEps(i), true)
			}
			lp.resolutionExit()
		},
	})
	run, err := lp.run()
	if err != nil {
		return nil, err
	}
	res := &TopTResult{Result: *run, Membership: membership}

	// Any group still unclassified (possible under the resolution or cap
	// exits) is assigned by final estimate.
	rank := Ranking(res.Estimates)
	taken := 0
	for _, i := range rank {
		if taken < t && membership[i] != MemberOut {
			if membership[i] == MemberUnknown {
				membership[i] = MemberIn
			}
			taken++
		} else if membership[i] == MemberUnknown {
			membership[i] = MemberOut
		}
	}
	for _, i := range rank {
		if membership[i] == MemberIn && len(res.Members) < t {
			res.Members = append(res.Members, i)
		}
	}
	return res, nil
}
