package core

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"p4assert/internal/progs"
)

var update = flag.Bool("update", false, "regenerate testdata/comparable.sha256")

// digestConfigs are the pipeline configurations whose reports are pinned.
var digestConfigs = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"opt", Options{Opt: true}},
	{"o3", Options{O3: true}},
	{"parallel4", Options{Parallel: 4}},
	{"parallel4+o3", Options{Parallel: 4, O3: true}},
	{"tests", Options{CollectTests: true}},
}

const digestFile = "testdata/comparable.sha256"

// TestComparableReportDigests pins every corpus report byte for byte: the
// SHA-256 of ComparableJSON (violations, counterexamples, traces, metrics,
// generated tests) for each program under each configuration in
// digestConfigs must equal the digest recorded in testdata. A change to the
// executor, solver or translator that is meant to be report-invariant must
// leave the file untouched; one that changes reports on purpose
// regenerates it with `go test ./internal/core -run ComparableReportDigests
// -update` and the diff shows which reports moved.
func TestComparableReportDigests(t *testing.T) {
	var got []string
	for _, p := range progs.All() {
		for _, cfg := range digestConfigs {
			rep, err := VerifySource(p.Name+".p4", p.Source, cfg.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, cfg.name, err)
			}
			js, err := rep.ComparableJSON()
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, cfg.name, err)
			}
			sum := sha256.Sum256(js)
			got = append(got, fmt.Sprintf("%s %s %s", p.Name, cfg.name, hex.EncodeToString(sum[:])))
		}
	}
	if *update {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the corpus produces %d", digestFile, len(want), len(got))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("report digest changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
