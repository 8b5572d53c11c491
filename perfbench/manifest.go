package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The benchmark's definition is BENCHMARK.json at the repository root: a
// run reads the workload names, the metric names and units, and the
// default run length from it.

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if m.RunSeconds < 1 || len(m.Workloads) == 0 || len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: needs run_seconds, workloads, end_to_end and per_layer")
	}
	return &m, nil
}

// units maps every metric name to its unit.
func (m *manifest) units() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		u[d.Name] = d.Unit
	}
	return u
}

// metrics returns the metrics a run reports: the end-to-end ones, or the
// per-layer ones for a traced run.
func (m *manifest) metrics(trace bool) []metricDef {
	if trace {
		return m.PerLayer
	}
	return m.EndToEnd
}
