package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Op identifies
// the cell or request the call served, so every span of one operation
// shares it; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started but not yet ended.
type open struct {
	id, parent int64
	name, op   string
	start      time.Time
}

// start opens a span named name for operation op under parent.
func (t *tracer) start(name, op string, parent int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{id: id, parent: parent, name: name, op: op, start: time.Now()}
}

// end closes o and returns the recorded span.
func (t *tracer) end(o open) span {
	if t == nil {
		return span{}
	}
	s := span{
		ID: o.id, Parent: o.parent, Name: o.name, Op: o.op,
		Start: int64(o.start.Sub(t.t0)), End: int64(time.Since(t.t0)),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// named returns the durations in milliseconds of the spans called name.
func (t *tracer) named(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// write stores the spans as JSON in dir/spans.json.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}

// profileShares reads a CPU profile's sampled stacks with the toolchain's
// pprof and returns two sets of shares. stage gives, for each pipeline
// stage, the CPU time of the samples inside it as a share of those inside
// (*core.Core).Run (0 when the profile holds none). layer gives, for each
// of the layers, the CPU time charged to it as a share of the profile's;
// a sample is charged to the innermost frame that belongs to a layer.
func profileShares(profile string) (stage, layer map[string]float64, err error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	const pkg = "repro/internal/core.(*Core)."
	var total, run time.Duration
	inStage := map[string]time.Duration{}
	inLayer := map[string]time.Duration{}
	// account charges one sampled stack, innermost frame first.
	account := func(d time.Duration, frames []string) {
		total += d
		charged := false
		seen := map[string]bool{}
		for _, f := range frames {
			if !charged {
				if l := layerOf(f); l != "" {
					inLayer[l] += d
					charged = true
				}
			}
			seen[f] = true
		}
		if !charged {
			inLayer["other"] += d
		}
		if seen[pkg+"Run"] {
			run += d
			for _, s := range stages {
				if seen[pkg+s.Func] {
					inStage[s.Name] += d
				}
			}
		}
	}
	var (
		d      time.Duration
		frames []string
		inBody bool
	)
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if len(frames) > 0 {
				account(d, frames)
			}
			frames, inBody = nil, true
			continue
		}
		f := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if !inBody || len(f) == 0 {
			continue
		}
		if len(frames) == 0 {
			if len(f) < 2 {
				return nil, nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			if d, err = time.ParseDuration(f[0]); err != nil {
				return nil, nil, fmt.Errorf("pprof -traces: %w", err)
			}
			f = f[1:]
		}
		frames = append(frames, strings.Join(f, " "))
	}
	if len(frames) > 0 {
		account(d, frames)
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("profile %s holds no samples", profile)
	}
	stage, layer = map[string]float64{}, map[string]float64{}
	for _, s := range stages {
		stage[s.Name] = 0
		if run > 0 {
			stage[s.Name] = float64(inStage[s.Name]) / float64(run)
		}
	}
	for _, l := range layers {
		layer[l.Name] = float64(inLayer[l.Name]) / float64(total)
	}
	return stage, layer, sc.Err()
}

// layerOf names the layer a profiled function belongs to, or "" if none.
func layerOf(fn string) string {
	path := strings.TrimPrefix(fn, "repro/internal/")
	if path == fn && !strings.HasPrefix(fn, "main.") {
		return ""
	}
	// No directory of the module has a dot in its name, so the package
	// path ends at the first dot.
	pkgPath := path[:strings.Index(path+".", ".")]
	for _, l := range layers {
		for _, p := range l.Packages {
			if p == pkgPath {
				return l.Name
			}
		}
	}
	return ""
}

// writeJSON stores v as indented JSON in path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
