package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	// serviceClients closed-loop clients share a server sized to as many
	// simulation goroutines (two run slots, one runner worker each).
	serviceClients = 2
	// warmRequests new grids per client are sent during set-up, so the
	// timed part can repeat and overlap from its first request.
	warmRequests = 2
	// warmSeed picks what the warm-up requests simulate. It is the same
	// for every workload seed, so every run's set-up does the same work:
	// with seeded warm-up grids, setup_s read 0.11-0.15 s on some seeds and
	// 0.21-0.26 s on others, run after run.
	warmSeed = 0x3a7e
	// digestRequests is how many of each client's first timed requests the
	// digest covers, after its warm-up ones; every run completes at least
	// that many per client, so the digest never depends on timing.
	digestRequests = 50
	// recentGrids bounds how far back repeats and overlaps reach.
	recentGrids = 16
)

// kindBlock is the request mix, shuffled afresh for every block of
// requests so each run has the same shares whatever the seed: 35% exact
// repeats of an earlier grid (hits), 20% partial overlaps (new cells next
// to cached ones) and 45% new grids. Repeats stay well below half, so the
// hit and miss medians never sit on the boundary between the classes.
var kindBlock = []string{
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
	"overlap", "overlap", "overlap", "overlap",
	"new", "new", "new", "new", "new", "new", "new", "new", "new",
}

// gridShapes are the (modes, benchmarks) sizes of new grids, used in
// shuffled blocks like kindBlock.
var gridShapes = [][2]int{{1, 1}, {2, 1}, {3, 1}, {1, 2}, {2, 2}, {3, 2}}

// serviceBenches are the profiles the service mix draws from: all of
// SPEC2000 but mcf, art and ammp, whose large data segments make a small
// cell 10-30x slower to capture and set up than the rest. In a mix of
// small grids they would make the miss latencies depend on how often a
// seed happens to draw them; modes-scalar times mcf.
func serviceBenches() []string {
	var out []string
	for _, p := range workload.SPEC2000() {
		switch p.Name {
		case "mcf", "art", "ammp":
		default:
			out = append(out, p.Name)
		}
	}
	return out
}

// mixGen generates one client's request sequence. Its shape (the kind of
// each request, the size of each new grid, which earlier grid a repeat or
// an overlap refers to) is the same for every workload seed, so runs with
// different seeds load the service alike; the seed picks what each
// request after the warm-up ones simulates: the modes and benchmarks,
// drawn in balanced blocks, and every new grid's workload seed. A repeat
// or an overlap only refers to the client's own earlier grids, which have
// completed by then in a closed loop, so whether a request can hit the
// cache is fixed in advance.
type mixGen struct {
	shape   *rand.Rand // seed-independent
	content *rand.Rand // from warmSeed, then from the workload seed
	seed    uint64
	client  uint64
	sent    int
	insns   uint64
	history []api.RunRequest
	kinds   []string
	shapes  [][2]int
	modes   *deck
	benches *deck
}

func newMixGen(seed, client, insns uint64) *mixGen {
	g := &mixGen{shape: rand.New(rand.NewPCG(0x5ba9e, client)), seed: seed, client: client, insns: insns}
	g.useContent(warmSeed)
	return g
}

// useContent makes seed pick what the following requests simulate.
func (g *mixGen) useContent(seed uint64) {
	g.content = rand.New(rand.NewPCG(seed, 0x5e41ce+g.client))
	g.modes = &deck{rng: g.content, cards: core.ModeNames()}
	g.benches = &deck{rng: g.content, cards: serviceBenches()}
}

// deck deals its cards in seeded order, reshuffling once all are dealt,
// so every card is drawn equally often.
type deck struct {
	rng   *rand.Rand
	cards []string
	left  []string
}

// deal returns n distinct cards, none equal to not.
func (d *deck) deal(n int, not string) []string {
	var out []string
	for len(out) < n {
		if len(d.left) == 0 {
			d.left = shuffled(d.rng, d.cards)
		}
		c := d.left[0]
		d.left = d.left[1:]
		if c != not && !contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// next returns the kind ("new", "repeat" or "overlap") and body of the
// client's next request.
func (g *mixGen) next() (string, api.RunRequest) {
	if g.sent == warmRequests {
		g.useContent(g.seed)
	}
	g.sent++
	if len(g.kinds) == 0 {
		g.kinds = shuffled(g.shape, kindBlock)
	}
	kind := g.kinds[0]
	g.kinds = g.kinds[1:]
	if len(g.history) == 0 {
		kind = "new"
	}
	var req api.RunRequest
	switch kind {
	case "repeat":
		req = g.recent()
	case "overlap":
		// One cell of an earlier grid plus cells it lacks.
		h := g.recent()
		req = api.RunRequest{
			Modes:      append([]string{h.Modes[0]}, g.modes.deal(1, h.Modes[0])...),
			Benchmarks: append([]string{h.Benchmarks[0]}, g.benches.deal(1, h.Benchmarks[0])...),
			Insns:      h.Insns, Seed: h.Seed, Verify: true,
		}
	default:
		if len(g.shapes) == 0 {
			g.shapes = shuffled(g.shape, gridShapes)
		}
		shape := g.shapes[0]
		g.shapes = g.shapes[1:]
		req = api.RunRequest{
			Modes:      g.modes.deal(shape[0], ""),
			Benchmarks: g.benches.deal(shape[1], ""),
			Insns:      g.insns,
			// A fresh workload seed: a new grid simulates programs no
			// earlier grid has.
			Seed:   g.content.Uint64() | 1,
			Verify: true,
		}
	}
	if kind != "repeat" {
		g.history = append(g.history, req)
	}
	return kind, req
}

func (g *mixGen) recent() api.RunRequest {
	lo := len(g.history) - recentGrids
	if lo < 0 {
		lo = 0
	}
	return g.history[lo+g.shape.IntN(len(g.history)-lo)]
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// svcServer is an in-process daemon listening on loopback.
type svcServer struct {
	url  string
	http *http.Server
	done chan error
}

func startServer(insns uint64) (*svcServer, error) {
	srv := service.New(service.Config{
		Workers: serviceClients, Parallelism: 1, DefaultInsns: insns, Verify: true,
		// Large enough that no cached cell is evicted within a run, so a
		// repeat is always a hit.
		CacheEntries: 1 << 16,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &svcServer{
		url:  "http://" + ln.Addr().String(),
		http: &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// svcObs is one completed request as the client saw it.
type svcObs struct {
	latency       time.Duration
	queue         time.Duration // Started - Created
	exec          time.Duration // Finished - Started
	respBytes     int
	cells         int
	hits          int
	results       []json.RawMessage
	fingerprintUs []float64 // per job, traced only
}

// svcClient sends its generator's requests one at a time.
type svcClient struct {
	id   int
	gen  *mixGen
	http *http.Client
	url  string
}

func (c *svcClient) do(e *env, n int) (svcObs, api.RunRequest, error) {
	_, req := c.gen.next()
	body, err := json.Marshal(req)
	if err != nil {
		return svcObs{}, req, err
	}
	op := fmt.Sprintf("client%d/req%d", c.id, n)
	sp := e.tr.start("service.POST /v1/runs", op, 0)
	t0 := time.Now()
	resp, err := c.http.Post(c.url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return svcObs{}, req, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	e.tr.end(sp)
	if err != nil {
		return svcObs{}, req, err
	}
	if resp.StatusCode/100 != 2 {
		return svcObs{}, req, fmt.Errorf("%s: HTTP %d: %s", op, resp.StatusCode, raw)
	}
	var run struct {
		api.Run
		Results []struct {
			Bench    string          `json:"bench"`
			Config   string          `json:"config"`
			CacheHit bool            `json:"cache_hit"`
			Result   json.RawMessage `json:"result"`
			Error    string          `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &run); err != nil {
		return svcObs{}, req, fmt.Errorf("%s: decoding response: %w", op, err)
	}
	if run.Status != api.StatusDone || run.Started == nil || run.Finished == nil {
		return svcObs{}, req, fmt.Errorf("%s: run %s ended %q: %s", op, run.ID, run.Status, run.Error)
	}
	o := svcObs{
		latency: lat, respBytes: len(raw), cells: run.Cells, hits: run.CacheHits,
		queue: run.Started.Sub(run.Created), exec: run.Finished.Sub(*run.Started),
	}
	for _, r := range run.Results {
		if r.Error != "" || len(r.Result) == 0 {
			return svcObs{}, req, fmt.Errorf("%s: %s on %s: %s", op, r.Bench, r.Config, r.Error)
		}
		o.results = append(o.results, r.Result)
	}
	if e.tr != nil {
		o.fingerprintUs = fingerprintTimes(e, req, op)
	}
	return o, req, nil
}

// fingerprintTimes builds the runner jobs the server derives from req and
// times Job.Fingerprint on each, in microseconds.
func fingerprintTimes(e *env, req api.RunRequest, op string) []float64 {
	var out []float64
	for _, b := range req.Benchmarks {
		p, _ := workload.ByName(b)
		for _, m := range req.Modes {
			mi, _ := core.ModeByName(m)
			j := runner.Job{Name: m, Config: mi.Base(), Profile: p,
				Opts: sim.Options{Insns: req.Insns, Verify: req.Verify, Seed: req.Seed}}
			sp := e.tr.start("runner.Job.Fingerprint", op, 0)
			_, _ = j.Fingerprint() // the server reports a failure as a cell error
			out = append(out, float64(e.tr.end(sp).dur())/1e3)
		}
	}
	return out
}

// cellKeys names the cells of req in the server's result order.
func cellKeys(req api.RunRequest) []string {
	var out []string
	for _, b := range req.Benchmarks {
		for _, m := range req.Modes {
			out = append(out, fmt.Sprintf("%d/%d/%s/%s", req.Seed, req.Insns, b, m))
		}
	}
	return out
}

// runServiceMixed drives an in-process daemon with serviceClients closed-
// loop clients. wall_s is the median request latency, insns_per_s the
// instructions of every cell the clients received (cached or simulated)
// over the measuring time. A request is a hit when every cell came from
// the cache. Every cell result is compared byte for byte with the first response
// that carried the same cell, so a cached result that differs from the
// fresh one fails the run.
func runServiceMixed(e *env) (*report, error) {
	rep := newReport()
	insns := e.sz.ServiceInsns
	var (
		srv     *svcServer
		clients []*svcClient
		first   = map[string]json.RawMessage{}
		prefix  = make([][]svcObs, serviceClients) // warm-up and first digestRequests per client
		mu      sync.Mutex                         // guards first, rep, obs and the counts
		obs     []svcObs
	)
	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	// record checks one completed request and keeps it.
	record := func(c *svcClient, n int, o svcObs, req api.RunRequest, timed bool) {
		mu.Lock()
		defer mu.Unlock()
		rep.attempted++
		keys := cellKeys(req)
		if len(keys) != len(o.results) {
			rep.fail("client%d/req%d: %d results for %d cells", c.id, n, len(o.results), len(keys))
			return
		}
		for k, key := range keys {
			if f, ok := first[key]; !ok {
				first[key] = o.results[k]
			} else if !bytes.Equal(f, o.results[k]) {
				rep.fail("client%d/req%d: cell %s differs from its first response", c.id, n, key)
				return
			}
		}
		if n < warmRequests+digestRequests {
			prefix[c.id] = append(prefix[c.id], o)
		}
		if timed {
			obs = append(obs, o)
		}
	}

	var err error
	rep.metrics["setup_s"], err = e.setup(func() error {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		var err error
		if srv, err = startServer(insns); err != nil {
			return err
		}
		clear(first)
		rep.attempted, rep.failed, rep.failures = 0, 0, nil
		clients = clients[:0]
		for i := range prefix {
			prefix[i] = nil
		}
		for id := 0; id < serviceClients; id++ {
			c := &svcClient{id: id, gen: newMixGen(e.seed, uint64(id), insns), http: hc, url: srv.url}
			clients = append(clients, c)
			for n := 0; n < warmRequests; n++ {
				o, req, err := c.do(e, n)
				if err != nil {
					return err
				}
				record(c, n, o, req, false)
			}
		}
		return nil
	})
	if err != nil {
		if srv != nil {
			_ = srv.stop() // the set-up error is the one to report
		}
		return nil, err
	}

	// done reports whether a client may stop: the measuring time has
	// passed and the client has made the requests the digest covers.
	t0 := time.Now()
	done := func(n int) bool {
		return n >= warmRequests+digestRequests && time.Since(t0) >= e.dur
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			for n := warmRequests; !done(n); n++ {
				o, req, err := c.do(e, n)
				if err != nil {
					mu.Lock()
					rep.attempted++
					rep.fail("%v", err)
					mu.Unlock()
					continue
				}
				record(c, n, o, req, true)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if err := srv.stop(); err != nil {
		return nil, err
	}

	var lat, hitLat, missLat, overhead, queue, exec, kb, fp []float64
	var cells, hits int
	for _, o := range obs {
		l := ms(o.latency)
		lat = append(lat, l)
		if o.hits == o.cells {
			hitLat = append(hitLat, l)
		} else {
			missLat = append(missLat, l)
		}
		overhead = append(overhead, l-ms(o.queue+o.exec))
		queue = append(queue, ms(o.queue))
		exec = append(exec, ms(o.exec))
		kb = append(kb, float64(o.respBytes)/1024)
		fp = append(fp, o.fingerprintUs...)
		cells += o.cells
		hits += o.hits
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d timed requests in %.1fs: %d hits, %d misses", len(obs), elapsed.Seconds(), len(hitLat), len(missLat)))
	rep.metrics["wall_s"] = median(lat) / 1e3
	rep.metrics["insns_per_s"] = float64(uint64(cells)*insns) / elapsed.Seconds()
	D := rep.detail
	D["req_per_s"] = float64(len(obs)) / elapsed.Seconds()
	D["hit_p50_ms"] = median(hitLat)
	D["miss_p50_ms"] = median(missLat)
	// A p90 with fewer than minBeyond samples beyond it is left out.
	if v, err := percentile(hitLat, 0.9); err == nil {
		D["hit_p90_ms"] = v
	}
	if v, err := percentile(missLat, 0.9); err == nil {
		D["miss_p90_ms"] = v
	}

	for id, p := range prefix {
		for n, o := range p {
			for k, raw := range o.results {
				var r sim.Result
				if err := json.Unmarshal(raw, &r); err != nil {
					return nil, err
				}
				rep.addCell(fmt.Sprintf("client%d/req%d/%d", id, n, k), r)
			}
		}
	}
	if e.tr != nil {
		D["runner.fingerprint_us.p50"] = median(fp)
		D["service.overhead_ms.p50"] = median(overhead)
		D["service.resp_kb.mean"] = mean(kb)
		D["service.cache_hit_ratio"] = float64(hits) / float64(cells)
		D["service.queue_wait_ms.p50"] = median(queue)
		D["service.exec_ms.p50"] = median(exec)
	}
	return rep, nil
}
