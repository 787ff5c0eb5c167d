package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics the command prints in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: command has %d metrics, BENCHMARK.json %d", tc.kind, len(tc.got), len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if tc.got[i].name != w.Name || tc.got[i].unit != w.Unit {
				t.Errorf("%s[%d]: command %s [%s], BENCHMARK.json %s [%s]", tc.kind, i, tc.got[i].name, tc.got[i].unit, w.Name, w.Unit)
			}
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); len(got) != len(names) {
		t.Errorf("command runs %v, BENCHMARK.json lists %v", got, names)
	} else {
		for i := range got {
			if got[i] != names[i] {
				t.Errorf("command runs %v, BENCHMARK.json lists %v", got, names)
				break
			}
		}
	}
}

// TestPhaseBytes checks the per-phase allreduce rule: every step's Reduce
// calls, in order, carry 4 bytes per parameter of the nets that phase
// updates, and a one-rank trainer carries none.
func TestPhaseBytes(t *testing.T) {
	a := archOf(dataParallelConfig().Model)
	e, d, f, i, ds := a.Params()
	good := []int{4 * (e + d), 4 * ds, 4 * (f + i)}
	steps := func(works ...[]int) ([]span, []int) {
		var spans []span
		var idx []int
		for _, w := range works {
			parent := len(spans)
			spans = append(spans, span{Name: "cyclegan.train_step", Parent: -1})
			for _, b := range w {
				idx = append(idx, len(spans))
				spans = append(spans, span{Name: "comm.allreduce", Parent: parent, Work: b})
			}
		}
		return spans, idx
	}
	withDecoder := []int{good[0], good[1], good[2] + 4*d}
	for _, tc := range []struct {
		name      string
		works     [][]int
		multiRank bool
		ok        bool
	}{
		{"two ranks", [][]int{good, good}, true, true},
		{"one rank moves nothing", [][]int{{0, 0, 0}}, false, true},
		{"decoder in generator phase", [][]int{good, withDecoder}, true, false},
		{"missing phase", [][]int{good[:2]}, true, false},
		{"one rank moved bytes", [][]int{good}, false, false},
		{"no calls", nil, true, false},
	} {
		spans, idx := steps(tc.works...)
		out := &outcome{}
		phaseBytes(out, spans, idx, a, tc.multiRank)
		if ok := len(out.problems) == 0; ok != tc.ok {
			t.Errorf("%s: passed=%v, want %v (%v)", tc.name, ok, tc.ok, out.problems)
		}
	}
}
