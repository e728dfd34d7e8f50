package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at tiny sizes and
// checks the result line's schema, the metric names and units against the
// metric tables, and that every answer passed its correctness check. It
// does not look at the timings.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", w, "--seed", "7", "--seconds", "0.5", "--trace", traced, "--smoke", "--out", t.TempDir()}
				if err := run(args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not a JSON object: %v", err)
				}
				if got := sortedKeys(raw); strings.Join(got, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys = %v", got)
				}
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
			})
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code in step: the same
// workloads (each naming its latency limit), the same metrics in the same
// order with the same units, and bounds within the allowed range.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(sortedKeys(top), ","); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Fatalf("BENCHMARK.json keys = %s", got)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	slo := map[string]int{"cold-tlr": coldSLO, "warm-sweep": warmSLO, "region-detect": regionSLO, "serve-mixed": serveSLO}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if !strings.Contains(w.Why, "SLO "+strconv.Itoa(slo[w.Name])+" ms") {
			t.Errorf("workload %s: why %q does not state its SLO of %d ms", w.Name, w.Why, slo[w.Name])
		}
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, code has %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, code has %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "perfbench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

// TestImportSurface freezes what the benchmark reaches in the program: it
// imports only the packages manifest.json lists (never the engine's factor
// packages), and every package-qualified name and method it uses is listed
// there, so a refactor that keeps these symbols needs no benchmark edit.
func TestImportSurface(t *testing.T) {
	data, err := os.ReadFile("manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Imports        []string `json:"imports"`
		Symbols        []string `json:"symbols"`
		Methods        []string `json:"methods"`
		ServeStatsKeys []string `json:"serve_stats_keys"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	allowed := setOf(man.Imports)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used, calls := map[string]bool{}, map[string]bool{}
	src := ""
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := os.ReadFile(f)
		src += string(body)
		local := map[string]bool{}
		for _, imp := range file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != "repro" && !strings.HasPrefix(path, "repro/") {
				continue
			}
			if !allowed[path] {
				t.Errorf("%s imports %s, which manifest.json does not allow", f, path)
			}
			name := filepath.Base(path)
			if path == "repro" {
				name = "parmvn"
			}
			local[name] = true
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] {
				used[id.Name+"."+sel.Sel.Name] = true
			} else {
				calls[sel.Sel.Name] = true
			}
			return true
		})
	}
	listed := setOf(man.Symbols)
	for s := range used {
		if !listed[s] {
			t.Errorf("benchmark uses %s, which manifest.json does not list", s)
		}
	}
	for s := range listed {
		if !used[s] {
			t.Errorf("manifest.json lists %s, which the benchmark does not use", s)
		}
	}
	for _, m := range man.Methods {
		_, name, _ := strings.Cut(m, ".")
		if !calls[name] {
			t.Errorf("manifest.json lists method %s, which the benchmark does not call", m)
		}
	}
	for _, k := range man.ServeStatsKeys {
		if !strings.Contains(src, strconv.Quote(k)) {
			t.Errorf("manifest.json lists /stats key %s, which the benchmark does not read", k)
		}
	}
}

// TestRunFailsWithoutProgram checks that the launcher exits non-zero, and
// prints no result, in a directory holding only BENCHMARK.json and the
// whole benchmark directory: it must build the program from source and has
// none to build.
func TestRunFailsWithoutProgram(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash")
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	copyFile := func(src, dst string) {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dst, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	copyFile("../BENCHMARK.json", filepath.Join(dir, "BENCHMARK.json"))
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			copyFile(e.Name(), filepath.Join(dir, "perfbench", e.Name()))
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "cold-tlr", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without the program:\n%s", out)
	}
	if bytes.Contains(out, []byte(`"correct"`)) {
		t.Fatalf("run.sh printed a result without the program:\n%s", out)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func setOf(xs []string) map[string]bool {
	m := map[string]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}
