package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stats.json from the current core")

const goldenStatsFile = "testdata/golden_stats.json"

// goldenVariants are the scheduler and reuse-buffer options the golden
// matrix crosses with every registered mode: each one takes a different
// path through select/issue, wakeup or recovery.
var goldenVariants = []struct {
	name  string
	apply func(*core.Config)
}{
	{"base", func(*core.Config) {}},
	{"chaining", func(c *core.Config) { c.IRBChaining = true }},
	{"chaining+decoupled", func(c *core.Config) { c.IRBChaining = true; c.Scheduler = core.Decoupled }},
	{"decoupled", func(c *core.Config) { c.Scheduler = core.Decoupled }},
	{"clustered", func(c *core.Config) { c.Clustered = true }},
	{"clustered+chaining", func(c *core.Config) { c.Clustered = true; c.IRBChaining = true }},
	{"irb-as-fu", func(c *core.Config) { c.IRBAsFU = true }},
	{"name-based", func(c *core.Config) { c.IRBNameBased = true }},
	{"squash-reuse", func(c *core.Config) { c.IRBSquashReuse = true }},
	{"both-streams+chaining", func(c *core.Config) { c.IRBBothStreams = true; c.IRBChaining = true }},
}

// goldenCell is one entry of the golden file: the full statistics of one
// mode × variant × benchmark run.
type goldenCell struct {
	Mode    core.Mode
	Variant string
	Bench   string
	Result  Result
}

// TestGoldenStats pins the core's absolute output. Every registered mode
// at its Base() machine, crossed with the scheduler/reuse variants above
// (configurations Validate rejects are skipped), runs gzip, bzip2, mesa
// and vpr for 10k verified instructions; the JSON-encoded results must
// equal the committed file byte for byte. A timing-model change that is
// meant to alter the numbers regenerates the file with
//
//	go test ./internal/sim -run TestGoldenStats -update
//
// and the diff of testdata/golden_stats.json shows exactly what moved.
// A refactor or optimisation must leave it untouched.
func TestGoldenStats(t *testing.T) {
	const insns = 10_000
	benches := []string{"gzip", "bzip2", "mesa", "vpr"}
	var cells []goldenCell
	for _, b := range benches {
		p, ok := workload.ByName(b)
		if !ok {
			t.Fatalf("profile %s missing", b)
		}
		opts := Options{Insns: insns, Verify: true}
		tr, err := CaptureTrace(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Trace = tr
		for _, mi := range core.Modes() {
			for _, v := range goldenVariants {
				cfg := mi.Base()
				v.apply(&cfg)
				if cfg.Validate() != nil {
					continue
				}
				name := string(mi.Mode) + "/" + v.name
				r, err := Run(name, cfg, p, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, b, err)
				}
				cells = append(cells, goldenCell{Mode: mi.Mode, Variant: v.name, Bench: b, Result: r})
			}
		}
	}
	// One cell per line, so a diff of the file names the cells that moved.
	got := []byte("[\n")
	for i, c := range cells {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, line...)
		if i < len(cells)-1 {
			got = append(got, ',')
		}
		got = append(got, '\n')
	}
	got = append(got, "]\n"...)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenStatsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(cells), goldenStatsFile)
		return
	}
	want, err := os.ReadFile(goldenStatsFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden file has %d lines, the matrix produced %d", len(wantLines), len(gotLines))
	}
	bad := 0
	for i := range gotLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			bad++
			if bad <= 5 {
				t.Errorf("line %d differs:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	t.Errorf("%d of %d cells differ from %s", bad, len(cells), goldenStatsFile)
}
