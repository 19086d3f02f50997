package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: BENCHMARK.json %d + %d, benchmark %d + %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := b.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	known := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		known[d.Name] = true
	}
	for i, d := range perLayer {
		m := b.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if d.Moves == "" || d.On == "" {
			t.Errorf("%s: no end-to-end metric or workload it should move", d.Name)
		}
		for _, tok := range strings.FieldsFunc(d.Moves, func(r rune) bool { return strings.ContainsRune(" ,()", r) }) {
			if strings.Contains(tok, "_") && !known[tok] {
				t.Errorf("%s moves %q, which is not a metric of the benchmark", d.Name, tok)
			}
		}
	}
}

// buildServer compiles pbtree-server for the end-to-end tests.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pbtree-server")
	cmd := exec.Command("go", "build", "-o", bin, "pbtree/cmd/pbtree-server")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	return bin
}

// TestEveryWorkloadCompletesTiny runs each workload end to end, untraced
// and traced, at a tiny key count, and checks the printed result names
// exactly the metrics BENCHMARK.json lists.
func TestEveryWorkloadCompletesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	bin := buildServer(t)
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			var out bytes.Buffer
			o := options{workload: w.Name, seed: 3, seconds: 1, trace: trace, server: bin, out: t.TempDir(), keys: 3000}
			code, err := run(o, &out)
			if err != nil || code != 0 {
				t.Fatalf("%s trace %d: code %d err %v\n%s", w.Name, trace, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w.Name, trace, err)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %d: %+v", w.Name, trace, res)
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or mislabelled: %+v", w.Name, trace, d.Name, m)
				}
			}
		}
	}
}

func TestParseFlagDefaults(t *testing.T) {
	text := "Usage of pbtree-server:\n" +
		"  -branchless\n    \tbranchless search (pbtree backend)\n" +
		"  -fsync string\n    \tWAL fsync policy: always|interval|never (default \"always\")\n" +
		"  -gapped\n    \tgapped leaves (default true)\n" +
		"  -width int\n    \ttree node width in cache lines (default 8)\n"
	got := parseFlagDefaults(text)
	want := map[string]string{"branchless": "", "fsync": "always", "gapped": "true", "width": "8"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("-%s: default %q, want %q", k, got[k], v)
		}
	}
}

// TestReplayReadsServerDefaults checks the replay's configuration comes
// from the built server's own flag listing.
func TestReplayReadsServerDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server")
	}
	d, err := readServerDefaults(buildServer(t))
	if err != nil {
		t.Fatal(err)
	}
	if d.Width < 1 || d.CheckpointEvery < 1 || d.FsyncInterval <= 0 {
		t.Fatalf("defaults not read from -h: %+v", d)
	}
}
