package engine

import (
	"testing"

	"combining/internal/core"
	"combining/internal/faults"
	"combining/internal/rmw"
	"combining/internal/word"
)

type linkMsg struct {
	req core.Request
	tag int
}

// newLinkEndpoint builds a one-port, one-module endpoint whose links land
// replies and file requests into the given hooks.
func newLinkEndpoint(plan *faults.Plan, land func(Delivery), file func(int, linkMsg)) *Endpoint[linkMsg] {
	e := &Endpoint[linkMsg]{}
	e.Init(Setup[linkMsg]{
		Name:        "link",
		Injectors:   make([]Injector, 1),
		Modules:     1,
		Faults:      plan,
		Watchdog:    -1,
		Step:        func() {},
		Occupancy:   func() int { return 0 },
		StallDetail: func() string { return "" },
		Req:         func(m *linkMsg) *core.Request { return &m.req },
		File:        file,
		Land:        land,
		MemSite:     func(int) uint64 { return faults.Site(1, 0, 0) },
		ProcSite:    func(int) uint64 { return faults.Site(0, 0, 0) },
	})
	return e
}

// TestReplyLinkDupOwnsLeaves: a reply the link duplicates lands twice, and
// each copy owns its Leaves map — with a shared map, decombining or the
// injector mutating one copy would corrupt the other.
func TestReplyLinkDupOwnsLeaves(t *testing.T) {
	var got []Delivery
	e := newLinkEndpoint(&faults.Plan{Seed: 1, Dup: 1}, func(d Delivery) { got = append(got, d) }, nil)
	e.ReplyLink(Delivery{
		Rep:   core.Reply{ID: 7, Val: word.W(42), Leaves: map[word.ReqID]word.Word{7: word.W(42), 9: word.W(43)}},
		Issue: 5,
		Hot:   true,
	})
	if len(got) != 2 {
		t.Fatalf("landed %d copies, want the original and its duplicate", len(got))
	}
	for _, d := range got {
		if !core.ReplyOK(d.Rep) || d.Issue != 5 || !d.Hot {
			t.Fatalf("landed copy lost its stamp or tags: %+v", d)
		}
	}
	got[0].Rep.Leaves[7] = word.W(99)
	if got[1].Rep.Leaves[7] != word.W(42) {
		t.Errorf("mutating one copy's Leaves changed the other: %v", got[1].Rep.Leaves)
	}
}

// TestMemLinkHoldsThenEntersOnce: a reordered request waits in limbo for
// its deferral, then enters stamped; the link's duplicate enqueues a second
// copy but files the metadata once.
func TestMemLinkHoldsThenEntersOnce(t *testing.T) {
	var filed []linkMsg
	plan := &faults.Plan{Seed: 1, Reorder: 1, ReorderMax: 3, Dup: 1}
	e := newLinkEndpoint(plan, nil, func(_ int, m linkMsg) { filed = append(filed, m) })
	e.MemLink(0, linkMsg{req: core.NewRequest(3, 17, rmw.FetchAdd(1), 2).WithReps(), tag: 8})
	if len(filed) != 0 || e.LinkEnqueued() != 0 {
		t.Fatalf("reordered request entered at once")
	}
	for c := 0; c < 3 && len(filed) == 0; c++ {
		e.StartCycle()
		e.Redrive()
	}
	if len(filed) != 1 || filed[0].tag != 8 || !core.RequestOK(filed[0].req) {
		t.Fatalf("filed %+v, want the stamped request once", filed)
	}
	if got := e.Memory().Module(0).QueueLen(); got != 2 || e.LinkEnqueued() != 2 {
		t.Errorf("module holds %d, link counted %d; want the request and its duplicate", got, e.LinkEnqueued())
	}
}
