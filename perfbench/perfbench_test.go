package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"combining/internal/word"
)

// replySet feeds a synthetic run into a fresh checker: issues[i] is the
// address of request i+1 from processor i%2, replies lists (request,
// old value) pairs in delivery order, mem is the final memory.
func replySet(issues []word.Addr, replies [][2]int64, mem map[word.Addr]int64) *replyCheck {
	c := newReplyCheck(2, window, 4)
	for i, a := range issues {
		c.issue(i%2, word.ReqID(i+1), a, 0)
	}
	for _, r := range replies {
		c.deliver(int(r[0]-1)%2, word.ReqID(r[0]), r[1], 5)
	}
	c.finish(func(a word.Addr) int64 { return mem[a] })
	return c
}

func TestReplyCheck(t *testing.T) {
	issues := []word.Addr{0, 0, 0, 2}
	good := [][2]int64{{2, 0}, {1, 1}, {4, 0}, {3, 2}}
	mem := map[word.Addr]int64{0: 3, 2: 1}
	if c := replySet(issues, good, mem); c.bad != 0 || len(c.errs) != 0 {
		t.Fatalf("valid reply set rejected: %v", c.errs)
	}
	cases := map[string]struct {
		replies [][2]int64
		mem     map[word.Addr]int64
	}{
		"duplicated reply":     {append(good[:len(good):len(good)], [2]int64{1, 1}), mem},
		"missing reply":        {good[:3], mem},
		"repeated old value":   {[][2]int64{{2, 0}, {1, 0}, {4, 0}, {3, 2}}, mem},
		"old value out of set": {[][2]int64{{2, 0}, {1, 1}, {4, 0}, {3, 7}}, mem},
		"negative old value":   {[][2]int64{{2, 0}, {1, -1}, {4, 0}, {3, 2}}, mem},
		"wrong final memory":   {good, map[word.Addr]int64{0: 4, 2: 1}},
		"stray write":          {good, map[word.Addr]int64{0: 3, 1: 1, 2: 1}},
		"unknown request":      {append(good[:len(good):len(good)], [2]int64{9, 3}), mem},
	}
	for name, tc := range cases {
		if c := replySet(issues, tc.replies, tc.mem); c.bad == 0 || len(c.errs) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}

	c := newReplyCheck(1, window, 4)
	for i := 0; i <= window; i++ {
		c.issue(0, word.ReqID(i+1), 0, 0)
	}
	if c.bad == 0 {
		t.Errorf("issue beyond the window accepted")
	}
}

// small returns a few-second version of each cycle engine.
func small() []machine {
	return []machine{
		{layer: "network", procs: 64, workers: 1, hot: 0.125, warm: 20, measure: 200, chunk: 20},
		{layer: "hypercube", procs: 64, workers: 1, hot: 0.125, warm: 20, measure: 200, chunk: 20},
		{layer: "busnet", procs: 16, banks: 4, workers: 1, hot: 0.125, warm: 20, measure: 400, chunk: 40},
	}
}

// simulated is everything a run reports in simulated time.
func simulated(er *engineRun) []any {
	return []any{er.digest, er.cycles, er.completed, er.latP50, er.latP99, er.latN, er.issued, er.endSnap.Counters}
}

func TestTracedMatchesUntraced(t *testing.T) {
	for _, m := range small() {
		plain := runMachine(m, 7, false, &heapPeak{})
		traced := runMachine(m, 7, true, &heapPeak{})
		for _, er := range []*engineRun{plain, traced} {
			if er.failed != 0 || len(er.errs) != 0 {
				t.Fatalf("%s: checks failed: %v", m.layer, er.errs)
			}
		}
		if a, b := simulated(plain), simulated(traced); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: traced run differs in simulated time:\n%v\n%v", m.layer, a, b)
		}
		if len(traced.tr.cycleNs) == 0 || traced.tr.nextCalls == 0 {
			t.Errorf("%s: traced run recorded no cycles or generator calls", m.layer)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, m := range small() {
		serial := runMachine(m, 3, false, &heapPeak{})
		m.workers = 2
		parallel := runMachine(m, 3, false, &heapPeak{})
		if a, b := simulated(serial), simulated(parallel); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Workers=2 differs from the serial stepper:\n%v\n%v", m.layer, a, b)
		}
	}
}

func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, perLayer)
	}
	all := workloads(2)
	for _, w := range names(spec.Workloads) {
		if _, ok := all[w]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", w)
		}
	}
	if len(spec.Workloads) != len(all) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program defines %d", len(spec.Workloads), len(all))
	}
}

func TestReportPrint(t *testing.T) {
	r := &report{attempted: 10}
	r.add("a", 1.5, "s", 3)
	r.add("b", 2, "1/s", 3)
	var buf bytes.Buffer
	if err := r.print(&buf, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"correct": true, "attempted": 10.0, "failed": 0.0,
		"metrics": map[string]any{"b": map[string]any{"value": 2.0, "unit": "1/s"}}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result line %v, want %v", got, want)
	}
	if err := r.print(&buf, []string{"missing"}); err == nil {
		t.Errorf("a declared metric that was not measured was accepted")
	}
}
