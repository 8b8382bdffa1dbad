package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetricsDoc keeps the repository's
// BENCHMARK.json and metrics.json naming the same workloads and metrics
// with the same units and directions.
func TestBenchmarkJSONMatchesMetricsDoc(t *testing.T) {
	type metric struct{ Name, Unit, Better string }
	type workload struct{ Name string }
	type file struct {
		Workloads []workload
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	read := func(path string, data []byte) file {
		var f file
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return f
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	bench, doc := read("BENCHMARK.json", raw), read("metrics.json", metricsDoc)
	if len(bench.Workloads) != len(workloads) || len(doc.Workloads) != len(workloads) {
		t.Fatalf("workload counts: BENCHMARK.json %d, metrics.json %d, code %d", len(bench.Workloads), len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bench.Workloads[i].Name != w.name || doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, metrics.json %q, code %q", i, bench.Workloads[i].Name, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, a, b []metric) {
		if len(a) != len(b) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.json %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, metrics.json %+v", kind, i, a[i], b[i])
			}
		}
	}
	same("end_to_end", bench.EndToEnd, doc.EndToEnd)
	same("per_layer", bench.PerLayer, doc.PerLayer)
}

func TestParseStages(t *testing.T) {
	got := parseStages("admit=0.041ms;cache=0.003ms;queue=1.250ms;simulate=12.007ms")
	want := map[string]float64{"admit": 0.041, "cache": 0.003, "queue": 1.25, "simulate": 12.007}
	if len(got) != len(want) {
		t.Fatalf("parseStages = %v", got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("stage %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v, want 4", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty = %v, want 0", q)
	}
}
