package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime/metrics"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scalarRounds is the least number of rounds an untraced modes-scalar pass
// makes, so each cell's time is a median of at least three samples; a pass
// makes more rounds while --seconds has not passed. One round of 21 cells
// at 100k instructions takes about 6 s on a 2-vCPU VM.
const scalarRounds = 3

// runModesScalar runs every registered mode at its Base() machine, one
// cell at a time, on the scalarProfiles from traces captured during
// set-up. The timed part is sim.RunContext alone: no runner, no service,
// no trace capture. Each round runs every (mode, profile) cell once, in an
// order shuffled by the workload seed. wall_s is a round at every cell's
// median time across rounds; insns_per_s is the geometric mean over the
// cells of their instructions per second at that time, and the detail
// insns_per_s.<MODE> the same mean over one mode's cells. The geometric
// mean keeps mcf, whose cells take five to ten times longer than the
// others', from setting the figure alone.
//
// The programs are the profiles' own (sim.Options.Seed 0, the ones
// EXPERIMENTS.md reports), not seeded ones: a seeded generator changes
// mcf's IPC by up to 2x (0.21 to 0.47 over five seeds), and mcf's idle
// cycles dominate every mode's time, so seeded programs would make the
// throughput a property of the seed.
//
// The traced pass also runs each cell's core directly (core.NewAt and
// (*core.Core).Run over the same trace, checked against it commit by
// commit), which splits sim.RunContext's time into set-up and cycle loop.
func runModesScalar(e *env) (*report, error) {
	rep := newReport()
	profiles, err := lookupProfiles(scalarProfiles)
	if err != nil {
		return nil, err
	}
	insns := e.sz.ScalarInsns
	opts := sim.Options{Insns: insns, Verify: true}
	traces := make([]*fsim.Trace, len(profiles))
	rep.metrics["setup_s"], err = e.setup(func() error {
		for k, p := range profiles {
			tr, err := capture(e, p, opts, "setup."+p.Name)
			if err != nil {
				return err
			}
			traces[k] = tr
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	modes := core.Modes()
	var (
		times     = map[string][]float64{} // "<mode>/<profile>" -> seconds per round
		first     = map[string]sim.Result{}
		loopNs    = map[string][]float64{} // direct core.Run ns per cycle
		allocs    = map[string][]float64{} // per mode
		cellSetup []float64                // ms
	)
	type cellRef struct {
		mi core.ModeInfo
		k  int
	}
	var order []cellRef
	for _, mi := range modes {
		for k := range profiles {
			order = append(order, cellRef{mi, k})
		}
	}
	rng := rand.New(rand.NewPCG(e.seed, 0x5ca1a))
	rounds := scalarRounds
	if e.tr != nil {
		rounds = 1 // the traced pass runs each cell twice; keep it short
	}
	err = e.repeat(rounds, func(round int) error {
		for _, c := range shuffled(rng, order) {
			mi, k, p := c.mi, c.k, profiles[c.k]
			key := string(mi.Mode) + "/" + p.Name
			op := fmt.Sprintf("%s#%d", key, round)
			cell := e.tr.start("modes-scalar.cell", op, 0)
			o := opts
			o.Trace = traces[k]
			var a0 uint64
			if e.tr != nil {
				a0 = heapAllocs()
			}
			sp := e.tr.start("sim.RunContext", op, cell.id)
			t0 := time.Now()
			res, err := sim.RunContext(e.ctx, string(mi.Mode), mi.Base(), p, o)
			d := time.Since(t0)
			e.tr.end(sp)
			rep.attempted++
			switch prev, seen := first[key]; {
			case err != nil:
				rep.fail("%s: %v", key, err)
			case res.Core.Committed != insns:
				rep.fail("%s: committed %d of %d instructions", key, res.Core.Committed, insns)
			case res.Core.FaultsSilent > 0:
				rep.fail("%s: %d silent fault escapes", key, res.Core.FaultsSilent)
			case seen && !reflect.DeepEqual(prev, res):
				rep.fail("%s: round %d simulated different statistics than round 0", key, round)
			default:
				if !seen {
					first[key] = res
				}
				times[key] = append(times[key], d.Seconds())
			}
			if e.tr != nil && err == nil {
				allocs[string(mi.Mode)] = append(allocs[string(mi.Mode)], float64(heapAllocs()-a0))
				loop, st, derr := directRun(e, mi.Base(), traces[k], insns, op, cell.id)
				switch {
				case derr != nil:
					rep.fail("%s: direct core run: %v", key, derr)
				case st != res.Core:
					rep.fail("%s: direct core run differs from sim.RunContext", key)
				default:
					loopNs[key] = append(loopNs[key], float64(loop)/float64(st.Cycles))
					cellSetup = append(cellSetup, ms(d-loop))
				}
			}
			e.tr.end(cell)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d cells in rounds of %d", rep.attempted, len(order)))

	for _, c := range order {
		key := string(c.mi.Mode) + "/" + profiles[c.k].Name
		rep.addCell(key, first[key])
	}
	// A round at every cell's median speed, and the geometric mean of the
	// cells' throughputs at that speed.
	var round, logAll float64
	for _, mi := range modes {
		logSum := 0.0
		for _, p := range profiles {
			t := median(times[string(mi.Mode)+"/"+p.Name])
			round += t
			logSum += math.Log(float64(insns) / t)
		}
		logAll += logSum
		rep.detail["insns_per_s."+string(mi.Mode)] = math.Exp(logSum / float64(len(profiles)))
	}
	rep.metrics["wall_s"] = round
	rep.metrics["insns_per_s"] = math.Exp(logAll / float64(len(order)))
	if e.tr == nil {
		return rep, nil
	}

	D := rep.detail
	for _, mi := range modes {
		m := string(mi.Mode)
		var committed, cycles uint64
		for _, p := range profiles {
			key := m + "/" + p.Name
			D["core.ns_per_cycle."+m+"."+p.Name] = median(loopNs[key])
			committed += first[key].Core.Committed
			cycles += first[key].Core.Cycles
		}
		D["core.allocs_per_cell."+m] = median(allocs[m])
		D["core.ipc."+m] = ratio(committed, cycles)
	}
	D["sim.capture_ms.p50"] = median(e.tr.named("sim.CaptureTrace"))
	D["workload.generate_ms.p50"] = median(e.tr.named("sim.ProgramFor"))
	D["analysis.check_ms.p50"] = median(e.tr.named("analysis.Check"))
	D["sim.cell_setup_ms.p50"] = median(cellSetup)
	var captured uint64
	for _, tr := range traces {
		captured += tr.Len()
	}
	capMs := e.tr.named("sim.CaptureTrace")
	sets := float64(len(capMs)) / float64(len(profiles)) // set-ups made
	D["fsim.capture_insns_per_s"] = float64(captured) * sets / (sum(capMs) / 1e3)
	return rep, nil
}

// capture records the trace sim.RunContext replays for (p, opts). Traced,
// it also times generating and preflighting the program on its own.
func capture(e *env, p workload.Profile, opts sim.Options, op string) (*fsim.Trace, error) {
	if e.tr != nil {
		sp := e.tr.start("sim.ProgramFor", op, 0)
		prog, err := sim.ProgramFor(p, opts)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = e.tr.start("analysis.Check", op, 0)
		err = analysis.Check(prog)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	sp := e.tr.start("sim.CaptureTrace", op, 0)
	tr, err := sim.CaptureTrace(p, opts)
	e.tr.end(sp)
	return tr, err
}

// directRun runs cfg's core over the trace the way sim.RunContext does,
// checking each commit against the trace, and returns the time spent in
// (*core.Core).Run and the final statistics.
func directRun(e *env, cfg core.Config, tr *fsim.Trace, insns uint64, op string, parent int64) (time.Duration, core.Stats, error) {
	cfg.MaxInsns = insns
	sp := e.tr.start("core.NewAt", op, parent)
	c, err := core.NewAt(cfg, fsim.NewReplay(tr))
	e.tr.end(sp)
	if err != nil {
		return 0, core.Stats{}, err
	}
	defer c.Release()
	cur := tr.Replay()
	c.OnCommit = func(rec *fsim.Retired) {
		want, ok := cur.Next()
		if !ok || rec.Seq != want.Seq || rec.PC != want.PC || rec.Result != want.Result ||
			rec.NextPC != want.NextPC || rec.Addr != want.Addr {
			c.Abort(fmt.Errorf("commit %d differs from the captured trace", rec.Seq))
		}
	}
	sp = e.tr.start("core.Run", op, parent)
	err = c.Run()
	s := e.tr.end(sp)
	return s.dur(), c.Stats, err
}

func lookupProfiles(names []string) ([]workload.Profile, error) {
	var out []workload.Profile
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown profile %q", n)
		}
		out = append(out, p)
	}
	return out, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// gcCPU returns the process's GC CPU time and total CPU time in seconds,
// as the runtime estimates them.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapAllocs is the count of heap objects allocated so far.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
