package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"mpsnap/internal/svc"
)

// workload is one traffic mix against one engine deployment.
type workload struct {
	name   string
	engine string
	// rate is the open-loop offered rate in ops/s (Poisson arrivals);
	// 0 selects a closed loop of sessions.
	rate     float64
	sessions int
	scanPct  int
	wal      bool
	// wrap, when set, interposes a faulty object between each engine and
	// its recorder; only the checker's tests set it.
	wrap func(node int, obj svc.BatchObject) svc.BatchObject
}

var workloads = []workload{
	{name: "eqaso-update", engine: "eqaso", rate: 2500, scanPct: 10},
	{name: "acr-saturate", engine: "acr", sessions: 256, scanPct: 10},
	{name: "eqaso-wal-scan", engine: "eqaso", rate: 4000, scanPct: 50, wal: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Record flags.
const (
	fScan     = 1 << iota
	fDone     // completed (successfully or not)
	fErr      // svc or the engine returned an error
	fWindow   // due (open loop) or issued (closed loop) inside the timed window
	fBadShape // scan returned the wrong number of segments
)

// opRec is one operation's record. Times are in 100 ns units since the run
// epoch (uint32 spans 429 s, well past any run), to keep millions of
// records small.
type opRec struct {
	issue uint32 // the generator called into svc
	done  uint32 // the op's Wait returned
	late  uint32 // issue minus due time (open loop only)
	admit uint32 // ns spent inside UpdateAsync/ScanAsync, saturating
	// slot is the commit index at the op's node for updates (set by the
	// checker) and the index of the scan's segment ids for scans.
	slot  int32
	node  uint8
	flags uint8
}

const unitNs = 100

func units(ns int64) uint32 {
	if ns <= 0 {
		return 0
	}
	if u := ns / unitNs; u < math.MaxUint32 {
		return uint32(u)
	}
	return math.MaxUint32
}

func sat32(ns int64) uint32 {
	if ns > math.MaxUint32 {
		return math.MaxUint32
	}
	if ns < 0 {
		return 0
	}
	return uint32(ns)
}

// latencyNs is the client-visible latency: from the due time in an open
// loop, from the issue time in a closed loop (late is 0 there).
func (r *opRec) latencyNs() int64 {
	return (int64(r.done) - int64(r.issue) + int64(r.late)) * unitNs
}

// session holds one client session's records. Op ids encode the session
// and the record index, so every payload maps back to its record.
type session struct {
	recs []opRec
	segs []uint64 // n payload ids per scan slot; 0 = ⊥, badID = undecodable
}

func opID(sess, seq int) uint64 { return uint64(sess+1)<<32 | uint64(seq) }

// storeScan decodes a snapshot into payload ids.
func storeScan(seg []uint64, snap [][]byte) (badShape bool) {
	if len(snap) != len(seg) {
		return true
	}
	for j, p := range snap {
		if p == nil {
			seg[j] = 0
			continue
		}
		if _, id, ok := parsePayload(p); ok {
			seg[j] = id
		} else {
			seg[j] = badID
		}
	}
	return false
}

// plan is the op schedule, generated from the seed before the run starts:
// each op's kind and target node, and in an open loop its due time.
type plan struct {
	due  []int64 // ns since the epoch (open loop)
	node []uint8
	scan []bool
}

// closedPlanLen is the closed loop's schedule length; session s walks it
// from its own offset and wraps around.
const closedPlanLen = 1 << 20

func makePlan(w workload, n int, seed int64, horizon time.Duration) plan {
	rng := rand.New(rand.NewSource(seed))
	var p plan
	next := func() {
		p.node = append(p.node, uint8(rng.Intn(n)))
		p.scan = append(p.scan, rng.Intn(100) < w.scanPct)
	}
	if w.rate <= 0 {
		for i := 0; i < closedPlanLen; i++ {
			next()
		}
		return p
	}
	mean := float64(time.Second) / w.rate
	for t := rng.ExpFloat64() * mean; t < float64(horizon); t += rng.ExpFloat64() * mean {
		p.due = append(p.due, int64(t))
		next()
	}
	return p
}

// clock is the run's time base.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// sleepUntil sleeps until t ns past the epoch.
func (c clock) sleepUntil(t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// openLoop admits each op at its due time from one generator goroutine
// and hands its ticket to a waiter goroutine, so a slow completion never
// delays a later arrival.
func openLoop(p plan, m *mesh, c clock, ws int64, s *session, wg *sync.WaitGroup) {
	n := len(m.services)
	for i, due := range p.due {
		c.sleepUntil(due)
		r := &s.recs[i]
		node := int(p.node[i])
		r.node = uint8(node)
		t0 := c.now()
		var tk *svc.Ticket
		var err error
		if p.scan[i] {
			r.flags = fScan
			tk, err = m.services[node].ScanAsync()
		} else {
			tk, err = m.services[node].UpdateAsync(makePayload(node, opID(0, i)))
		}
		t1 := c.now()
		r.issue, r.late, r.admit = units(t0), units(t0-due), sat32(t1-t0)
		if due >= ws {
			r.flags |= fWindow
		}
		if err != nil {
			r.done, r.flags = units(t1), r.flags|fDone|fErr
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := tk.Wait()
			t := c.now()
			if err == nil && r.flags&fScan != 0 {
				slot := int(r.slot) * n
				if storeScan(s.segs[slot:slot+n], tk.Snap()) {
					r.flags |= fBadShape
				}
			}
			r.done = units(t)
			r.flags |= fDone
			if err != nil {
				r.flags |= fErr
			}
		}()
	}
}

// closedLoop is one session: it issues its next op as soon as the previous
// one completes, until the window ends.
func closedLoop(sess int, p plan, m *mesh, c clock, ws, we int64, s *session) {
	n := len(m.services)
	k := (sess * 7919) % closedPlanLen
	for {
		t0 := c.now()
		if t0 >= we {
			return
		}
		k = (k + 1) % closedPlanLen
		node := int(p.node[k])
		s.recs = append(s.recs, opRec{node: uint8(node)})
		r := &s.recs[len(s.recs)-1]
		var tk *svc.Ticket
		var err error
		if p.scan[k] {
			r.flags = fScan
			r.slot = int32(len(s.segs) / n)
			s.segs = append(s.segs, make([]uint64, n)...)
			tk, err = m.services[node].ScanAsync()
		} else {
			tk, err = m.services[node].UpdateAsync(makePayload(node, opID(sess, len(s.recs)-1)))
		}
		t1 := c.now()
		if err == nil {
			err = tk.Wait()
		}
		t2 := c.now()
		r.issue, r.admit, r.done = units(t0), sat32(t1-t0), units(t2)
		r.flags |= fDone
		if t0 >= ws {
			r.flags |= fWindow
		}
		if err != nil {
			r.flags |= fErr
		} else if r.flags&fScan != 0 {
			slot := int(r.slot) * n
			if storeScan(s.segs[slot:slot+n], tk.Snap()) {
				r.flags |= fBadShape
			}
		}
	}
}
