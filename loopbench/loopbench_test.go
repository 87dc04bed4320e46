package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// runTiny runs every workload at its tiny size, traced or not, and
// checks the correctness gate and that exactly the named metrics are
// reported, each with its unit. No wall-clock assertions.
func runTiny(t *testing.T, traced bool, want []metricDef) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			p, err := workloadParams(w, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := benchmark(p, 0, traced, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rep.Rounds {
				if len(r.Gate) > 0 {
					t.Fatalf("correctness gate: %v", r.Gate)
				}
			}
			res := rep.Result
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%d metrics reported, want %d", len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Fatalf("metric %s not reported", d.Name)
				}
				if m.Unit != d.Unit {
					t.Fatalf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
				}
			}
			if traced {
				if len(rep.SelfRanking) != len(workLayers) {
					t.Fatalf("self-time ranking has %d layers, want %d", len(rep.SelfRanking), len(workLayers))
				}
				nTraced := 0
				for _, r := range rep.Rounds {
					if r.Traced {
						nTraced++
					}
				}
				if nTraced == 0 || nTraced == len(rep.Rounds) {
					t.Fatalf("traced run made %d traced of %d windows, want both kinds", nTraced, len(rep.Rounds))
				}
			}
			var out bytes.Buffer
			rep.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last output line is not the result: %v", err)
			}
		})
	}
}

func TestTinyUntracedRuns(t *testing.T) { runTiny(t, false, endToEnd) }

func TestTinyTracedRuns(t *testing.T) { runTiny(t, true, perLayer) }

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the code's
// workload and metric lists in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	want := append([]string(nil), workloadNames...)
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, code runs %v", names, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
		}
		byName := map[string]metricDef{}
		for _, d := range want {
			byName[d.Name] = d
		}
		for _, d := range got {
			if byName[d.Name] != d {
				t.Fatalf("%s: BENCHMARK.json has %+v, code has %+v", kind, d, byName[d.Name])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %q", out.String())
	}
}
