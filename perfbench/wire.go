package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"integrade/internal/grm"
	"integrade/internal/lrm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// wire-churn: a cluster-scale GRM served over the real TCP ORB on
// 127.0.0.1, with its stub LRMs on a second TCP server. Two goroutines share
// the process: an open-loop updater sends GRMClient.Update at a fixed rate
// (trader writes through ExportKeyed) and a closed-loop submitter sends
// GRMClient.Submit (trader reads plus reserve/execute over TCP). It is the
// one workload with TCP framing on the critical path and writes beside
// reads.

// updateStress is how many times faster than the repo's own cadence
// (lrm.DefaultUpdatePeriod: one update per node every 30 s) each node
// reports. At that cadence 200 nodes send 6.7 updates/s, under 1% of the
// trader operations beside the closed-loop submitter, too few for a change
// that slows ExportKeyed to show on the one workload meant to expose it.
// At 150x each node reports every 0.2 s and the 200 nodes send 1,000
// updates/s, about as many trader writes as the submitter makes Submits
// (~900/s on the 2-vCPU host the benchmark was tuned on).
const updateStress = 150

type wireConfig struct {
	nodes      int
	setups     int
	rate       float64 // updates per second: updateStress x the repo's cadence
	probeEvery int
	thresholds []mixThreshold
	heapAt     int // placed apps at which heap_mb is sampled
}

func wireConfigFor(opts runOpts) wireConfig {
	c := wireConfig{nodes: 200, setups: 15, probeEvery: 8, thresholds: wireThresholds, heapAt: 20000}
	if opts.short {
		c.nodes, c.setups, c.heapAt = 50, 2, 20
	}
	c.rate = updateStress * float64(c.nodes) / lrm.DefaultUpdatePeriod.Seconds()
	if opts.trace {
		// No heap_mb in a traced run, so no forced GC inside its phases.
		c.setups, c.heapAt = 1, 0
	}
	return c
}

// wireBase anchors the update timestamps: the k-th update of a node carries
// wireBase + k seconds, so the trader's updated_unix property names the
// update an offer came from.
var wireBase = time.Unix(1_700_000_000, 0)

type wireFleet struct {
	grmORB *orb.ORB // the GRM's invoker: reserve/execute to the stub LRMs
	updORB *orb.ORB // the updater's client (the LRM side of Update)
	subORB *orb.ORB // the submitter's client (the ASCT side of Submit)
	grmSrv *orb.Server
	lrmSrv *orb.Server
	g      *grm.GRM
	stubs  *stubFleet
	upd    *protocol.GRMClient
	sub    *protocol.GRMClient
	ids    []string
	refs   []orb.ObjectRef
	sg     statusGen
	acked  []int // per node: sequence number of the last acknowledged update
}

func newWireFleet(seed int64, c wireConfig) (*wireFleet, error) {
	f := &wireFleet{
		grmORB: orb.New(),
		updORB: orb.New(),
		subORB: orb.New(),
		stubs:  newStubFleet(seed),
		sg:     statusGen{rng: sim.NewRNG(seed).Fork("nodes")},
		acked:  make([]int, c.nodes),
	}
	f.g = grm.New("wire", sim.RealClock{}, f.grmORB, grm.WithRNG(sim.NewRNG(seed).Fork("grm")))
	gad := orb.NewAdapter()
	if err := gad.Register(protocol.GRMKey, f.g.Servant()); err != nil {
		f.close()
		return nil, err
	}
	lad := orb.NewAdapter()
	for i := 0; i < c.nodes; i++ {
		id := fmt.Sprintf("n%03d", i)
		if err := lad.Register("lrm/"+id, f.stubs.servant(i, id)); err != nil {
			f.close()
			return nil, err
		}
		f.ids = append(f.ids, id)
	}
	var err error
	if f.grmSrv, err = f.grmORB.ListenTCP("127.0.0.1:0", gad); err != nil {
		f.close()
		return nil, err
	}
	if f.lrmSrv, err = f.grmORB.ListenTCP("127.0.0.1:0", lad); err != nil {
		f.close()
		return nil, err
	}
	for _, id := range f.ids {
		f.refs = append(f.refs, f.lrmSrv.Ref("lrm/"+id))
	}
	f.upd = protocol.NewGRMClient(f.updORB, f.grmSrv.Ref(protocol.GRMKey))
	f.sub = protocol.NewGRMClient(f.subORB, f.grmSrv.Ref(protocol.GRMKey))
	for i := range f.ids {
		if _, err := f.upd.Update(f.sg.status(f.ids[i], i%16, f.refs[i], wireBase)); err != nil {
			f.close()
			return nil, fmt.Errorf("registering %s: %w", f.ids[i], err)
		}
	}
	if n := f.g.KnownNodes(); n != c.nodes {
		f.close()
		return nil, fmt.Errorf("trader holds %d node offers after registering %d", n, c.nodes)
	}
	return f, nil
}

func (f *wireFleet) close() {
	f.updORB.Close()
	f.subORB.Close()
	if f.grmSrv != nil {
		_ = f.grmSrv.Close()
	}
	if f.lrmSrv != nil {
		_ = f.lrmSrv.Close()
	}
	f.g.Stop()
	f.grmORB.Close()
}

// updResult is the open-loop updater's record of one phase.
type updResult struct {
	attempted, failed int
	firstErr          error
	latUs             []float64 // completion minus due time
	lateMs            []float64 // send start minus due time
}

// runUpdater sends one update every 1/rate seconds, round-robin over the
// nodes, until stop closes. Each update is timed from its due time, so a
// slow GRM shows as latency rather than as a slower generator.
func (f *wireFleet) runUpdater(rate float64, stop <-chan struct{}) updResult {
	var res updResult
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return res
		default:
		}
		res.lateMs = append(res.lateMs, ms(time.Since(due)))
		n := i % len(f.ids)
		seq := f.acked[n] + 1
		st := f.sg.status(f.ids[n], n%16, f.refs[n], wireBase.Add(time.Duration(seq)*time.Second))
		_, err := f.upd.Update(st)
		res.latUs = append(res.latUs, us(time.Since(due)))
		res.attempted++
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		f.acked[n] = seq
	}
}

// runSubmitter is the closed-loop client: one Submit in flight at a time.
// The GRM keeps every app, so the live heap grows with the apps placed; it
// is sampled once c.heapAt apps are placed, so heap_mb does not grow with
// placement speed.
func (f *wireFleet) runSubmitter(seed int64, c wireConfig, stop <-chan struct{}, rec *recorder, probe *prober) placePhase {
	mix := newMixGen(sim.NewRNG(seed).Fork("apps"), c.thresholds)
	ph := newPlacePhase()
	for {
		select {
		case <-stop:
			ph.wall = time.Since(ph.start)
			return ph
		default:
		}
		spec := mix.next()
		done := rec.begin(spanSubmit, 0)
		t0 := time.Now()
		id, err := f.sub.Submit(spec)
		lat := time.Since(t0)
		done()
		if ph.record(f.g, id, err, lat) {
			probe.tick(f.g.Trader())
			if len(ph.placedApps) == c.heapAt {
				ph.heapMB = heapMB()
			}
		}
	}
}

// churn runs the updater and the submitter side by side for d.
func (f *wireFleet) churn(seed int64, c wireConfig, d time.Duration, rec *recorder, probe *prober) (updResult, placePhase) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var upd updResult
	var sub placePhase
	wg.Add(2)
	go func() {
		defer wg.Done()
		upd = f.runUpdater(c.rate, stop)
	}()
	go func() {
		defer wg.Done()
		sub = f.runSubmitter(seed, c, stop, rec, probe)
	}()
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return upd, sub
}

// checkBacklog fails the run when the generator fell steadily behind: the
// median send lateness of the last quarter of updates must stay small and
// not far above the first quarter's.
func checkBacklog(out *outcome, upd updResult) {
	n := len(upd.lateMs)
	if n < 8 {
		out.problemf("updater sent only %d updates", n)
		return
	}
	first := median(upd.lateMs[:n/4])
	last := median(upd.lateMs[n-n/4:])
	if last > 10 && last > first+5 {
		out.problemf("update backlog grew: median lateness %.2f ms in the first quarter, %.2f ms in the last", first, last)
	}
}

// checkTrader verifies the trader after the churn: one offer per node, each
// carrying the node's last acknowledged update.
func (f *wireFleet) checkTrader(out *outcome) {
	if n := f.g.Trader().Count(grm.NodeStatusType); n != len(f.ids) {
		out.problemf("trader counts %d node offers, want %d", n, len(f.ids))
	}
	index := make(map[string]int, len(f.ids))
	for i, id := range f.ids {
		index[id] = i
	}
	var bad []string
	seen := 0
	for _, o := range f.g.Trader().All(grm.NodeStatusType) {
		id, _ := o.Properties[grm.PropNode].AsString()
		i, ok := index[id]
		if !ok {
			bad = append(bad, fmt.Sprintf("offer for unknown node %q", id))
			continue
		}
		seen++
		got, _ := o.Properties[grm.PropUpdatedUnix].AsNumber()
		if want := wireBase.Add(time.Duration(f.acked[i]) * time.Second).Unix(); int64(got) != want {
			bad = append(bad, fmt.Sprintf("node %s offer carries update %d, last acknowledged %d",
				id, int64(got)-wireBase.Unix(), f.acked[i]))
		}
	}
	if seen != len(f.ids) {
		bad = append(bad, fmt.Sprintf("%d offers matched known nodes, want %d", seen, len(f.ids)))
	}
	for _, b := range firstN(bad, 5) {
		out.problemf("trader: %s", b)
	}
}

func addUpdateFigures(out *outcome, upd updResult) {
	out.addReport("failed_update_errors", float64(upd.failed), "count")
	if upd.firstErr != nil {
		out.notef("first update error: %v", upd.firstErr)
	}
	t, pct, n := tail(upd.latUs)
	out.addReport("update_p50_us", median(upd.latUs), "us")
	out.addReport("update_tail_us", t, "us")
	out.addReport("update_tail_pct", pct, "percentile")
	out.addReport("update_samples", float64(n), "count")
	out.addReport("bench.gen_late_ms", quantile(upd.lateMs, 0.99), "ms")
}

func runWire(opts runOpts) (*outcome, error) {
	c := wireConfigFor(opts)
	out := &outcome{}
	var f *wireFleet
	var setups []float64
	for i := 0; i < c.setups; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		t0 := time.Now()
		nf, err := newWireFleet(opts.seed, c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		f = nf
	}
	defer f.close()
	out.notef("fleet: %d nodes over TCP, %g updates/s, %d%% seeded reservation refusals", c.nodes, c.rate, stubRefuseMill/10)
	measure := time.Duration(opts.seconds * float64(time.Second))

	if !opts.trace {
		upd, sub := f.churn(opts.seed, c, measure, nil, nil)
		out.attempted = upd.attempted + sub.attempted
		out.failed = upd.failed + sub.failed
		sub.addFailures(out)
		checkBacklog(out, upd)
		f.checkTrader(out)
		checkPlacements(out, f.g, f.stubs, sub.placedApps)
		out.addE2E("setup_s", median(setups), "s")
		addSubmitLatency(out, sub.latencyWindows())
		out.addE2E("placements_per_s", sub.placementRate(), "1/s")
		if sub.heapMB == 0 {
			out.notef("heap_mb sampled at the end: only %d apps placed, not %d", len(sub.placedApps), c.heapAt)
			sub.heapMB = heapMB()
		}
		out.addE2E("heap_mb", sub.heapMB, "MB")
		addUpdateFigures(out, upd)
		runtime.KeepAlive(f)
		return out, nil
	}

	p0 := readProc()
	// Untraced, traced with probes, untraced: as in place-10k, the untraced
	// phases bracket the traced one as the overhead baseline.
	bu, bs := f.churn(opts.seed, c, measure/3, nil, nil)
	p1 := readProc()
	rec := newRecorder()
	f.grmORB.SetInterceptor(interceptor{rec: rec, lane: 0})
	f.subORB.SetInterceptor(interceptor{rec: rec, lane: 0})
	f.updORB.SetInterceptor(interceptor{rec: rec, lane: 1})
	probe := mixProber(opts.seed, c.probeEvery, c.thresholds)
	s0, r0 := f.g.Stats(), f.stubs.refusals.Load()
	tu, ts := f.churn(opts.seed, c, measure/3, rec, probe)
	s1, r1 := f.g.Stats(), f.stubs.refusals.Load()
	for _, o := range []*orb.ORB{f.grmORB, f.subORB, f.updORB} {
		o.SetInterceptor(nil)
	}
	au, as := f.churn(opts.seed, c, measure/3, nil, nil)

	var placed []string
	for _, u := range []updResult{bu, tu, au} {
		out.attempted += u.attempted
		out.failed += u.failed
	}
	for _, ph := range []placePhase{bs, ts, as} {
		out.attempted += ph.attempted
		out.failed += ph.failed
		placed = append(placed, ph.placedApps...)
	}
	checkBacklog(out, tu)
	f.checkTrader(out)
	checkPlacements(out, f.g, f.stubs, placed)
	finishTrace(out, rec, opts, "wire-churn", map[string]bool{"orb.submit": true})
	probe.addLayer(out)
	grmLayer(out, s0, s1)
	out.addLayer("lrm.reserve_refusals", float64(r1-r0), "count")
	// Fixed on this workload: the stub LRMs never evict.
	out.addLayer("lrm.tasks_evicted", 0, "count")
	out.addLayer("lrm.updates_sent", float64(tu.attempted), "count")
	addProcLayer(out, p0, p1, bs.placedTasks)
	out.addLayer("bench.trace_overhead_frac", overheadFrac(ts.latMs, bs.latMs, as.latMs), "frac")
	addUpdateFigures(out, tu)
	return out, nil
}
