package main

import (
	"fmt"
	"sort"
)

// violations counts the scans failing each output check. ops is the
// number of distinct operations with at least one violation.
type violations struct {
	shape    int // a scan did not return n segments
	validity int // a segment holds a value never committed to that segment
	a1       int // two scans are incomparable
	a2       int // a scan misses an update completed before it was issued
	a3       int // a scan regresses below a scan completed before it was issued
	ops      int
	first    string // the first violation found, for the report
}

func (v *violations) add(o violations) {
	v.shape += o.shape
	v.validity += o.validity
	v.a1 += o.a1
	v.a2 += o.a2
	v.a3 += o.a3
	v.ops += o.ops
	if v.first == "" {
		v.first = o.first
	}
}

func (v violations) total() int { return v.shape + v.validity + v.a1 + v.a2 + v.a3 }

func (v violations) String() string {
	return fmt.Sprintf("shape=%d validity=%d A1=%d A2=%d A3=%d", v.shape, v.validity, v.a1, v.a2, v.a3)
}

// checkedScan is a completed scan in commit-index form: vec[j] is the
// position in node j's commit order of the value the scan returned for
// segment j, -1 for ⊥.
type checkedScan struct {
	issue, done uint32
	vec         []int32
	sum         int64
}

type checkedUpdate struct {
	done   uint32
	node   int
	commit int32
}

// check verifies every completed scan against the commit orders the
// recorders saw: shape, validity, (A2) containment of updates completed
// before the scan was issued, (A3) no regression below scans completed
// before it was issued, and (A1) pairwise comparability of all scans.
// It sets each update record's slot to its commit index.
func check(n int, sessions []*session, commits [][]uint64) violations {
	var v violations
	note := func(format string, args ...any) {
		if v.first == "" {
			v.first = fmt.Sprintf(format, args...)
		}
	}
	lookup := func(id uint64) *opRec {
		s, seq := int(id>>32)-1, int(uint32(id))
		if s < 0 || s >= len(sessions) || seq >= len(sessions[s].recs) {
			return nil
		}
		return &sessions[s].recs[seq]
	}
	for _, s := range sessions {
		for i := range s.recs {
			if s.recs[i].flags&fScan == 0 {
				s.recs[i].slot = -1
			}
		}
	}
	// A commit nobody issued at that node is a validity violation of the
	// commit log itself (it would let a scan return a forged value).
	for j, log := range commits {
		for k, id := range log {
			r := lookup(id)
			if r == nil || r.flags&fScan != 0 || int(r.node) != j || r.slot >= 0 {
				v.validity++
				v.ops++
				note("validity: node %d committed payload id %#x at index %d, which no update to it issued", j, id, k)
				continue
			}
			r.slot = int32(k)
		}
	}

	var scans []checkedScan
	var ups []checkedUpdate
	for _, s := range sessions {
		for i := range s.recs {
			r := &s.recs[i]
			if r.flags&fDone == 0 || r.flags&fErr != 0 {
				continue
			}
			if r.flags&fScan == 0 {
				if r.slot < 0 { // completed, yet never handed to the engine
					v.validity++
					v.ops++
					note("validity: an update to node %d completed but was never committed", r.node)
					continue
				}
				ups = append(ups, checkedUpdate{done: r.done, node: int(r.node), commit: r.slot})
				continue
			}
			if r.flags&fBadShape != 0 {
				v.shape++
				v.ops++
				note("shape: a scan at node %d returned other than %d segments", r.node, n)
				continue
			}
			sc := checkedScan{issue: r.issue, done: r.done, vec: make([]int32, n)}
			ok := true
			for j, id := range s.segs[int(r.slot)*n : int(r.slot)*n+n] {
				if id == 0 {
					sc.vec[j] = -1
					sc.sum--
					continue
				}
				u := lookup(id)
				if u == nil || u.flags&fScan != 0 || int(u.node) != j || u.slot < 0 {
					ok = false
					break
				}
				sc.vec[j] = u.slot
				sc.sum += int64(u.slot)
			}
			if !ok {
				v.validity++
				v.ops++
				note("validity: a scan at node %d returned a value never committed to its segment", r.node)
				continue
			}
			scans = append(scans, sc)
		}
	}
	bad := make([]bool, len(scans))
	flag := func(i int, class *int, why string, other []int32) {
		*class++
		if !bad[i] {
			bad[i] = true
			v.ops++
		}
		if v.first == "" {
			sc := &scans[i]
			v.first = fmt.Sprintf("%s: scan issued at %.4fs, done at %.4fs returned %v against %v",
				why, float64(sc.issue)*unitNs/1e9, float64(sc.done)*unitNs/1e9, sc.vec, other)
		}
	}

	byIssue := make([]int, len(scans))
	for i := range byIssue {
		byIssue[i] = i
	}
	sort.Slice(byIssue, func(a, b int) bool { return scans[byIssue[a]].issue < scans[byIssue[b]].issue })

	// (A2): sweep updates by completion time against scans by issue time.
	sort.Slice(ups, func(a, b int) bool { return ups[a].done < ups[b].done })
	need := make([]int32, n)
	for j := range need {
		need[j] = -1
	}
	u := 0
	for _, i := range byIssue {
		sc := &scans[i]
		for ; u < len(ups) && ups[u].done < sc.issue; u++ {
			if ups[u].commit > need[ups[u].node] {
				need[ups[u].node] = ups[u].commit
			}
		}
		for j := range need {
			if sc.vec[j] < need[j] {
				flag(i, &v.a2, "A2 missed a completed update", need)
				break
			}
		}
	}

	// (A3): the same sweep with completed scans as the floor.
	byDone := make([]int, len(scans))
	copy(byDone, byIssue)
	sort.Slice(byDone, func(a, b int) bool { return scans[byDone[a]].done < scans[byDone[b]].done })
	floor := make([]int32, n)
	for j := range floor {
		floor[j] = -1
	}
	d := 0
	for _, i := range byIssue {
		sc := &scans[i]
		for ; d < len(byDone) && scans[byDone[d]].done < sc.issue; d++ {
			for j, x := range scans[byDone[d]].vec {
				if x > floor[j] {
					floor[j] = x
				}
			}
		}
		for j := range floor {
			if sc.vec[j] < floor[j] {
				flag(i, &v.a3, "A3 regressed below a completed scan", floor)
				break
			}
		}
	}

	// (A1): the scans form a chain iff each is below its successor when
	// sorted by component sum.
	bySum := byIssue
	sort.Slice(bySum, func(a, b int) bool { return scans[bySum[a]].sum < scans[bySum[b]].sum })
	for k := 1; k < len(bySum); k++ {
		lo, hi := scans[bySum[k-1]].vec, scans[bySum[k]].vec
		for j := range lo {
			if lo[j] > hi[j] {
				flag(bySum[k], &v.a1, "A1 incomparable scans", lo)
				break
			}
		}
	}
	return v
}
