package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests hold the program
// to: every metric it names, with its unit.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "p4served")
	out, err := exec.Command("go", "build", "-o", bin, "p4assert/cmd/p4served").CombinedOutput()
	if err != nil {
		t.Fatalf("building p4served: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsPrintEveryMetric runs each workload at a smoke size, plain
// and traced, and checks the last output line names exactly the metrics
// BENCHMARK.json lists, with their units.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	daemon := buildDaemon(t)
	for _, w := range []string{"explore", "rules", "solve", "serve"} {
		for _, trace := range []bool{false, true} {
			cfg := config{
				Workload: w, Seed: 7, Seconds: 0.4, Trace: trace, Sizes: smokeSizes,
				SetupReps: 2, P4served: daemon, WorkDir: t.TempDir(), Commit: "test",
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, res); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w, err)
			}
			if keys := sortedKeys(last); !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
				t.Fatalf("%s: result keys %v", w, keys)
			}
			var got struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatal(err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w, trace, got.Correct, got.Attempted, got.Failed, res.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			units := map[string]string{}
			for _, m := range want {
				units[m.Name] = m.Unit
			}
			if len(got.Metrics) != len(units) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(got.Metrics), len(units))
			}
			for name, m := range got.Metrics {
				if u, ok := units[name]; !ok || u != m.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] not in BENCHMARK.json as such", w, trace, name, m.Unit)
				}
			}
			if !trace && got.Metrics["verdict_p50_ms"].Value <= 0 {
				t.Errorf("%s: verdict_p50_ms is %v", w, got.Metrics["verdict_p50_ms"].Value)
			}
		}
	}
}

func sortedKeys(m map[string]json.RawMessage) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWrongAnswerFailsTheRun gives each in-process workload a wrong
// expected answer: the warm-up must refuse it and the timed loop must
// count every verdict as failed.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, w := range []string{"explore", "rules", "solve"} {
		ins, err := inputs(w, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := warmUp(ins); err != nil {
			t.Fatalf("%s: correct expectations refused: %v", w, err)
		}
		for i := range ins {
			if ins[i].WantPaths > 0 {
				ins[i].WantPaths++
			} else {
				ins[i].WantViolations = append(ins[i].WantViolations, 99)
			}
		}
		if err := warmUp(ins); err == nil {
			t.Errorf("%s: warm-up accepted a wrong expected answer", w)
		}
		s := runLoop(ins, 50*time.Millisecond, untraced)
		if s.Attempted == 0 || s.Failed != s.Attempted || len(s.Lat) != 0 {
			t.Errorf("%s: wrong answer: attempted %d, failed %d", w, s.Attempted, s.Failed)
		}
	}
}

// TestServeReportMismatchFails tampers with a fetched report: the check
// against the in-process pipeline must fail that job.
func TestServeReportMismatchFails(t *testing.T) {
	x, err := newMix(1)
	if err != nil {
		t.Fatal(err)
	}
	js := x.spec(classCold)
	outs := checkReports([]jobOutcome{{class: classCold, source: js.source, report: []byte(`{"metrics":{}}`)}})
	if outs[0].err == nil {
		t.Fatal("a report that differs from the in-process one passed")
	}
}

// TestTracedCountersMatchCore is the traced run's cross-check on every
// in-process input: the layer-by-layer composition must reproduce
// core.VerifySource's verdict and deterministic counters exactly.
func TestTracedCountersMatchCore(t *testing.T) {
	for _, w := range []string{"explore", "rules", "solve"} {
		ins, err := inputs(w, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if err := crossCheck(ins); err != nil {
			t.Error(err)
		}
	}
}

// TestMixIsSeededAndFresh checks that the serve mix depends only on the
// seed, keeps its 4:3:3 class shares and never repeats an edited source,
// over more jobs than a long run on a fast host submits.
func TestMixIsSeededAndFresh(t *testing.T) {
	a, err := newMix(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newMix(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	count := map[jobClass]int{}
	for i := 0; i < 5000; i++ {
		ja, jb := a.next(), b.next()
		if ja != jb {
			t.Fatalf("job %d differs between two mixes of one seed", i)
		}
		count[ja.class]++
		if ja.class != classHit {
			if seen[ja.source] {
				t.Fatalf("job %d repeats an edited source", i)
			}
			seen[ja.source] = true
		}
	}
	if count[classHit] != 2000 || count[classIncr] != 1500 || count[classCold] != 1500 {
		t.Errorf("class counts %v, want 2000/1500/1500", count)
	}
}
