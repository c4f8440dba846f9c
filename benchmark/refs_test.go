package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/zhuge-project/zhuge/internal/experiments"
)

// A sweep whose outputs match the goldens except for one wrong reference
// hash fails exactly that experiment: failed_frac = 1/27.
func TestWrongReferenceHashFailsOneOf27(t *testing.T) {
	want, ok, err := refStore{}.reference("..", "sweep", 1)
	if err != nil || !ok {
		t.Fatalf("sweep seed 1 reference: ok=%v err=%v", ok, err)
	}
	exps := experiments.All()
	if len(want) != 27 || len(exps) != 27 {
		t.Fatalf("%d goldens for %d experiments, want 27", len(want), len(exps))
	}
	outs := make([]output, len(exps))
	for i, e := range exps {
		outs[i] = output{e.ID, want[i]}
	}
	if a, f, _ := check("sweep", outs, want); a != 27 || f != 0 {
		t.Fatalf("matching outputs: %d of %d failed", f, a)
	}
	bad := append([]string(nil), want...)
	bad[5] = strings.Repeat("0", 64)
	a, f, msgs := check("sweep", outs, bad)
	if a != 27 || f != 1 {
		t.Fatalf("one wrong hash: failed %d of %d, want 1 of 27", f, a)
	}
	if !strings.Contains(msgs[0], "sweep") || !strings.Contains(msgs[0], exps[5].ID) {
		t.Errorf("failure %q does not name the workload and experiment %s", msgs[0], exps[5].ID)
	}
}

func TestCheckCountsMissingAndExtraOutputs(t *testing.T) {
	outs := []output{{"a", "1"}, {"b", "2"}}
	if a, f, _ := check("campus", outs, []string{"1", "2", "3"}); a != 3 || f != 1 {
		t.Errorf("missing output: failed %d of %d, want 1 of 3", f, a)
	}
	if a, f, _ := check("campus", outs, []string{"1"}); a != 2 || f != 1 {
		t.Errorf("extra output: failed %d of %d, want 1 of 2", f, a)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics this command
// reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the command's:\n%s", mustJSON(endToEnd))
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the command's:\n%s", mustJSON(perLayer()))
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestRefsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(dir+"/benchmark", 0o755); err != nil {
		t.Fatal(err)
	}
	r := refStore{"longcall": {"10": {"a", "b"}, "2": {"c"}}, "campus": {"0": {"d"}}}
	if err := r.save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := loadRefs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip: got %v, want %v", got, r)
	}
}
