package engine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/rmw"
	"combining/internal/word"
)

// pipeInjector issues a fetch-and-add every cycle it is asked.
type pipeInjector struct{ next word.ReqID }

func (p *pipeInjector) Next(int64) (Injection, bool) {
	p.next++
	return Injection{Req: core.NewRequest(p.next, 0, rmw.FetchAdd(1), 0)}, true
}

func (p *pipeInjector) Deliver(core.Reply, int64) {}

// pipe is a one-cycle interior: every port's request is admitted, and its
// reply delivered the next cycle — unless the pipe is frozen, when nothing
// moves at all.  occupancyReads counts the endpoint's in-flight reads.
type pipe struct {
	e              Endpoint[int]
	inside         []Delivery
	frozen         bool
	occupancyReads int
}

func newPipe(procs int, watchdog int64) *pipe {
	m := &pipe{}
	inj := make([]Injector, procs)
	for p := range inj {
		inj[p] = &pipeInjector{next: word.ReqID(p) << 32}
	}
	m.e.Init(Setup[int]{
		Name:        "pipe",
		Injectors:   inj,
		Modules:     1,
		Watchdog:    watchdog,
		Step:        m.step,
		Occupancy:   func() int { m.occupancyReads++; return len(m.inside) },
		StallDetail: func() string { return "" },
	})
	return m
}

func (m *pipe) step() {
	m.e.StartCycle()
	m.e.Redrive()
	if !m.frozen {
		for _, d := range m.inside {
			m.e.Deliver(d)
		}
		m.inside = m.inside[:0]
		for p := range m.e.in.Injectors {
			msg, retry, ok := m.e.Offer(p)
			if !ok {
				continue
			}
			m.inside = append(m.inside, Delivery{Rep: core.Reply{ID: msg.Req.ID}, Proc: p, Issue: msg.Issue})
			m.e.Take(p, retry)
		}
	}
	m.e.EndCycle(false, 0)
}

// TestWatchdogReadsInFlightOnlyWhenStuck: over a progressing
// 1,024-processor run the endpoint never computes its in-flight count; once
// the interior freezes it reads the count on every frozen cycle and trips
// exactly limit cycles after the last movement, as the eager watchdog did.
func TestWatchdogReadsInFlightOnlyWhenStuck(t *testing.T) {
	const (
		procs    = 1024
		progress = 2000
		limit    = 50
	)
	m := newPipe(procs, limit)
	m.e.Run(progress)
	if m.occupancyReads != 0 {
		t.Fatalf("in-flight count computed %d times over a progressing run", m.occupancyReads)
	}
	if got := m.e.Tally().Completed; got != int64(procs*(progress-1)) {
		t.Fatalf("completed %d, want %d: the run was not progressing", got, procs*(progress-1))
	}
	m.frozen = true
	m.e.Run(10 * limit)
	if !m.e.Stalled() {
		t.Fatal("a frozen interior with work inside never tripped the watchdog")
	}
	if got, want := m.e.wd.TripCycle(), int64(progress+limit); got != want {
		t.Errorf("tripped at cycle %d, want %d (limit cycles after the last movement)", got, want)
	}
	if m.occupancyReads != limit {
		t.Errorf("in-flight count read %d times while frozen, want once per frozen cycle (%d)",
			m.occupancyReads, limit)
	}
}
