package busnet

import (
	"testing"

	"combining/internal/core"
	"combining/internal/engine"
	"combining/internal/rmw"
	"combining/internal/word"
)

// loopInjector is a closed-loop port with a window of 4 that issues
// fetch-and-add(1) to one fixed address, reusing its op and source set so
// the injector itself allocates nothing.
type loopInjector struct {
	ids         *word.IDGen
	nprocs      int
	outstanding int
	addr        word.Addr
	op          rmw.Mapping
	srcs        []word.ProcID
}

func newLoopInjector(proc, n int, addr word.Addr) *loopInjector {
	return &loopInjector{ids: word.Partition(proc, n), nprocs: n, addr: addr,
		op: rmw.FetchAdd(1), srcs: []word.ProcID{word.ProcID(proc)}}
}

func (l *loopInjector) Next(int64) (engine.Injection, bool) {
	if l.outstanding >= 4 {
		return engine.Injection{}, false
	}
	l.outstanding++
	id := l.ids.NextPartitioned(l.nprocs)
	return engine.Injection{Req: core.Request{ID: id, Addr: l.addr, Op: l.op, Srcs: l.srcs}}, true
}

func (l *loopInjector) Deliver(core.Reply, int64) { l.outstanding-- }

// TestSerialStepZeroAlloc: with every processor on its own address, a warmed
// serial step allocates nothing — the port's pending slot holds a value,
// not a boxed message.
func TestSerialStepZeroAlloc(t *testing.T) {
	const n = 16
	inj := make([]engine.Injector, n)
	for proc := range inj {
		inj[proc] = newLoopInjector(proc, n, word.Addr(proc))
	}
	sim := NewSim(Config{Procs: n, Banks: 4}, inj)
	sim.Run(512)
	if sim.Stats().Completed == 0 {
		t.Fatal("warmup completed nothing")
	}
	if allocs := testing.AllocsPerRun(200, func() { sim.Step() }); allocs != 0 {
		t.Errorf("steady-state serial step: %.2f allocs/op, want 0", allocs)
	}
}
