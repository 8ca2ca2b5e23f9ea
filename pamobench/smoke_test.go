package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkMetrics(t *testing.T, res result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

// fingerprint runs a tiny untraced pass and returns its decision
// fingerprint line.
func fingerprint(t *testing.T, w workload) (string, result) {
	t.Helper()
	var out bytes.Buffer
	res := untraced(context.Background(), &out, w, 1, time.Millisecond, tinySize)
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "fingerprint=") {
			return line, res
		}
	}
	t.Fatalf("no fingerprint line in:\n%s", out.String())
	return "", res
}

// TestSmoke runs every workload at a tiny size: every metric BENCHMARK.json
// names is emitted with its unit, nothing fails, and the decisions are the
// same at GOMAXPROCS 1 and 2.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s here and %s in BENCHMARK.json", i, w.name, spec.Workloads[i].Name)
		}
		t.Run(w.name, func(t *testing.T) {
			goruntime.GOMAXPROCS(1)
			fp1, res := fingerprint(t, w)
			goruntime.GOMAXPROCS(2)
			fp2, _ := fingerprint(t, w)
			if fp1 != fp2 {
				t.Errorf("decisions differ with GOMAXPROCS:\n 1: %s\n 2: %s", fp1, fp2)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if f := res.Metrics["success_frac"].Value; f != 1 {
				t.Errorf("success_frac = %v, want 1", f)
			}
			checkMetrics(t, res, spec.EndToEnd)

			tres := traced(context.Background(), &bytes.Buffer{}, w, 1, time.Millisecond, tinySize, "")
			if !tres.Correct || tres.Failed != 0 {
				t.Errorf("traced run: correct=%v attempted=%d failed=%d", tres.Correct, tres.Attempted, tres.Failed)
			}
			checkMetrics(t, tres, spec.PerLayer)
		})
	}
}
