package main

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	faultParallelism = 2
	// The two FU fault rates. At the sparse rate a lane's injector almost
	// never fires, so its lane converges with the batch leader and batching
	// wins; at the dense rate every lane diverges and is re-run as a scalar
	// cell after the leader, so batching loses. The dense rate injects
	// about 15 faults per lane: at 2e-5 (2-4 per lane) some seeds left one
	// or two lanes converged, and the campaign's wall time then depended on
	// the seed by up to 1.8x.
	sparseRate = 2e-8
	denseRate  = 1e-4
)

// campaignLane is one cell of the campaign: its rate set ("" for the
// fault-free baseline) and its injector.
type campaignLane struct {
	set string
	inj *fault.Injector
}

// campaignJobs builds the campaign with fresh injectors: the baseline
// cell, then sz.FaultLanes seeds at each rate. The fault seeds derive
// from the workload seed.
func campaignJobs(e *env, tr *fsim.Trace) ([]runner.Job, []campaignLane, error) {
	mi, ok := core.ModeByName("DIE-IRB")
	if !ok {
		return nil, nil, fmt.Errorf("mode DIE-IRB is not registered")
	}
	p, _ := workload.ByName("gzip")
	opts := sim.Options{Insns: e.sz.FaultInsns, Seed: e.seed, Verify: true, Trace: tr}
	jobs := []runner.Job{{Name: "baseline", Config: mi.Base(), Profile: p, Opts: opts}}
	lanes := []campaignLane{{}}
	rng := rand.New(rand.NewPCG(e.seed, 0xfa017))
	for _, set := range []struct {
		name string
		rate float64
	}{{"sparse", sparseRate}, {"dense", denseRate}} {
		for i := 0; i < e.sz.FaultLanes; i++ {
			inj, err := fault.New(fault.Config{Site: fault.FU, Rate: set.rate, Seed: rng.Uint64()})
			if err != nil {
				return nil, nil, err
			}
			o := opts
			o.Injector = inj
			jobs = append(jobs, runner.Job{Name: fmt.Sprintf("%s-%d", set.name, i), Config: mi.Base(), Profile: p, Opts: o})
			lanes = append(lanes, campaignLane{set: set.name, inj: inj})
		}
	}
	return jobs, lanes, nil
}

// runFaultCampaign times runner.Run over a DIE-IRB fault campaign on gzip
// with batching on: one baseline cell plus a sparse and a dense seed set,
// which the planner groups into one lockstep batch. wall_s is the median
// campaign, insns_per_s the instructions of every campaign's cells over
// their summed time. Every campaign must reproduce the first one's results, and no
// fault may escape silently.
//
// The traced pass also runs each rate's lanes through sim.RunBatchContext
// on its own, to count the lanes that diverge from the leader.
func runFaultCampaign(e *env) (*report, error) {
	rep := newReport()
	p, _ := workload.ByName("gzip")
	var tr *fsim.Trace
	var err error
	rep.metrics["setup_s"], err = e.setup(func() error {
		var err error
		tr, err = capture(e, p, sim.Options{Insns: e.sz.FaultInsns, Seed: e.seed, Verify: true}, "setup.gzip")
		return err
	})
	if err != nil {
		return nil, err
	}

	var (
		walls           []float64
		first           []sim.Result
		setEnd          = map[string][]float64{} // per campaign: seconds until the set's last lane finished
		injected, recov = map[string]uint64{}, map[string]uint64{}
		repairCycles    uint64
		repairs         uint64
	)
	err = e.repeat(2, func(i int) error {
		jobs, lanes, err := campaignJobs(e, tr)
		if err != nil {
			return err
		}
		op := fmt.Sprintf("campaign#%d", i)
		opts := runner.Options{Parallelism: faultParallelism}
		var mu sync.Mutex
		last := map[string]time.Duration{}
		t0 := time.Now()
		if e.tr != nil {
			opts.Progress = func(p runner.Progress) {
				if set := lanes[p.Index].set; set != "" {
					mu.Lock()
					last[set] = time.Since(t0)
					mu.Unlock()
				}
			}
		}
		sp := e.tr.start("runner.Run", op, 0)
		outs, runErr := runner.Run(e.ctx, jobs, opts)
		walls = append(walls, time.Since(t0).Seconds())
		e.tr.end(sp)

		results := make([]sim.Result, len(outs))
		for k, o := range outs {
			rep.attempted++
			switch {
			case o.Err != nil:
				rep.fail("%s: %v", o.Job.Name, o.Err)
			case o.Result.Core.Committed != e.sz.FaultInsns:
				rep.fail("%s: committed %d of %d", o.Job.Name, o.Result.Core.Committed, e.sz.FaultInsns)
			case o.Result.Core.FaultsSilent > 0:
				rep.fail("%s: %d silent fault escapes", o.Job.Name, o.Result.Core.FaultsSilent)
			case first != nil && !reflect.DeepEqual(first[k], o.Result):
				rep.fail("%s: campaign %d simulated different statistics than campaign 0", o.Job.Name, i)
			}
			results[k] = o.Result
		}
		if runErr != nil && rep.failed == 0 {
			rep.fail("campaign %d: %v", i, runErr)
		}
		if first == nil {
			first = results
			for k, l := range lanes {
				if l.inj == nil {
					continue
				}
				injected[l.set] += l.inj.InjectedCount()
				recov[l.set] += results[k].Core.FaultRecoveries
				if l.set == "dense" {
					repairCycles += results[k].Core.FaultRecoveryCycles
					repairs += results[k].Core.FaultRepairs
				}
			}
		}
		for set, d := range last {
			setEnd[set] = append(setEnd[set], d.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["wall_s"] = median(walls)
	rep.metrics["insns_per_s"] = float64(uint64(len(walls)*len(first))*e.sz.FaultInsns) / sum(walls)
	rep.notes = append(rep.notes, fmt.Sprintf("%d campaigns of %d cells", len(walls), len(first)))
	for k, r := range first {
		rep.addCell(fmt.Sprintf("lane%d", k), r)
	}
	rep.injected = injected["sparse"] + injected["dense"]
	if e.tr == nil {
		return rep, nil
	}

	L := rep.detail
	jobs, lanes, err := campaignJobs(e, tr)
	if err != nil {
		return nil, err
	}
	for _, set := range []string{"sparse", "dense"} {
		var bl []sim.BatchLane
		for k, l := range lanes {
			if l.set == set {
				bl = append(bl, sim.BatchLane{Name: jobs[k].Name, Injector: l.inj})
			}
		}
		j := jobs[0]
		sp := e.tr.start("sim.RunBatchContext", "batch."+set, 0)
		bouts, err := sim.RunBatchContext(e.ctx, j.Name, j.Config, j.Profile, j.Opts, bl)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("batch of the %s lanes: %w", set, err)
		}
		diverged := 0
		for _, b := range bouts {
			if b.Diverged {
				diverged++
			}
		}
		L["runner.batch.diverged_frac."+set] = float64(diverged) / float64(len(bouts))
		L["runner.campaign_s."+set] = median(setEnd[set])
		L["fault.injected."+set] = float64(injected[set])
		L["core.fault_recoveries."+set] = float64(recov[set])
	}
	L["core.mttr_cycles.dense"] = ratio(repairCycles, repairs)
	return rep, nil
}
