package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specPath is BENCHMARK.json as seen from the repository root, where
// run.sh starts the program. It is the one declaration of the metrics:
// names, units, directions and regression bounds are read from it at
// start-up, and the program refuses to emit a name it does not declare.
const specPath = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json the program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// metricDecl declares one metric the benchmark emits.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// loadSpec reads the declaration and checks that it names exactly the
// workloads the program has, in order.
func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.Workloads) != len(workloads) {
		return spec, fmt.Errorf("%s: %d workloads declared, the program has %d", path, len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			return spec, fmt.Errorf("%s: workload %d is %q, the program has %q", path, i, spec.Workloads[i].Name, w.name)
		}
	}
	return spec, nil
}

// metricValue is one emitted measurement, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against the declarations and refuses
// undeclared or doubly emitted names, so a typo cannot silently drop a
// metric from the output.
type metricSet struct {
	decls  []metricDecl
	values map[string]metricValue
}

func newMetricSet(decls []metricDecl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]metricValue, len(decls))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.decls {
		if d.Name == name {
			if _, dup := m.values[name]; dup {
				panic("bench: metric emitted twice: " + name)
			}
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric: " + name)
}

// done returns the complete map. A declared metric the workload did not
// set is a bug when strict (end-to-end: every workload emits every one);
// otherwise it is filled with 0, the "does not apply here" value.
func (m *metricSet) done(strict bool) map[string]metricValue {
	for _, d := range m.decls {
		if _, ok := m.values[d.Name]; !ok {
			if strict {
				panic("bench: metric not emitted: " + d.Name)
			}
			m.values[d.Name] = metricValue{Value: 0, Unit: d.Unit}
		}
	}
	return m.values
}
