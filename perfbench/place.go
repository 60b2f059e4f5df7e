package main

import (
	"fmt"
	"runtime"
	"time"

	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/sim"
)

// place-10k: one closed-loop client calls the default (synchronous) admission
// path, GRM.Submit, against a GRM whose trader holds ~10^4 distinct nodes.
// Every node registered through GRM.HandleUpdate with a full NodeStatus and
// has its own loopback endpoint and stub LRM; the stubs refuse a seeded
// share of reservations, so placement reads past the first candidate. The
// time goes to trader Select and policy ordering; the ORB, consensus and
// LRMs barely run.

type placeConfig struct {
	nodes      int
	setups     int // fleets built per untraced run; setup_s is their median
	probeEvery int
	thresholds []mixThreshold
}

func placeConfigFor(opts runOpts) placeConfig {
	c := placeConfig{nodes: 10000, setups: 3, probeEvery: 4, thresholds: placeThresholds}
	if opts.short {
		c.nodes, c.setups = 300, 2
	}
	if opts.trace {
		c.setups = 1
	}
	return c
}

type placeFleet struct {
	o     *orb.ORB
	g     *grm.GRM
	stubs *stubFleet
}

func newPlaceFleet(seed int64, c placeConfig) (*placeFleet, error) {
	o := orb.New()
	clock := sim.NewVirtualClock()
	g := grm.New("place", clock, o, grm.WithRNG(sim.NewRNG(seed).Fork("grm")))
	f := &placeFleet{o: o, g: g, stubs: newStubFleet(seed)}
	sg := statusGen{rng: sim.NewRNG(seed).Fork("nodes")}
	for i := 0; i < c.nodes; i++ {
		id := fmt.Sprintf("n%05d", i)
		adapter := orb.NewAdapter()
		if err := adapter.Register(protocol.LRMKey, f.stubs.servant(i, id)); err != nil {
			f.close()
			return nil, err
		}
		ep, err := o.BindLoopback(id, adapter)
		if err != nil {
			f.close()
			return nil, err
		}
		ref := orb.ObjectRef{Endpoint: ep, Key: protocol.LRMKey}
		if _, err := g.HandleUpdate(sg.status(id, i%16, ref, clock.Now())); err != nil {
			f.close()
			return nil, fmt.Errorf("registering %s: %w", id, err)
		}
	}
	if n := g.KnownNodes(); n != c.nodes {
		f.close()
		return nil, fmt.Errorf("trader holds %d node offers after registering %d", n, c.nodes)
	}
	return f, nil
}

func (f *placeFleet) close() {
	f.g.Stop()
	f.o.Close()
}

// placePhase is one closed-loop measurement: submissions until the
// deadline, the placed apps, and the wall time of each placed Submit.
type placePhase struct {
	attempted, failed int
	unplaced          int   // failed: Submit returned with tasks still pending
	firstErr          error // first Submit error (ErrAdmissionFull, RPC errors)
	latMs             []float64
	placedApps        []string
	placedTasks       int
	start             time.Time
	doneAt            []time.Duration // per placed app: when its Submit returned
	wall              time.Duration
	heapMB            float64 // live heap sampled mid-phase (wire-churn), 0 if not
}

func newPlacePhase() placePhase { return placePhase{start: time.Now()} }

// runPlacePhase submits apps from a fresh mix (the same sequence for the
// same seed) until d has passed. rec and probe may be nil.
func runPlacePhase(f *placeFleet, seed int64, c placeConfig, d time.Duration, rec *recorder, probe *prober) placePhase {
	mix := newMixGen(sim.NewRNG(seed).Fork("apps"), c.thresholds)
	ph := newPlacePhase()
	for time.Since(ph.start) < d {
		spec := mix.next()
		done := rec.begin(spanSubmit, 0)
		t0 := time.Now()
		id, err := f.g.Submit(spec)
		lat := time.Since(t0)
		done()
		if ph.record(f.g, id, err, lat) {
			probe.tick(f.g.Trader())
		}
	}
	ph.wall = time.Since(ph.start)
	return ph
}

// record accounts one Submit that took lat: an error or a task left pending
// counts as failed, a placed app joins the latency sample. It reports
// whether the app was placed.
func (ph *placePhase) record(g *grm.GRM, id string, err error, lat time.Duration) bool {
	ph.attempted++
	if err != nil {
		ph.failed++
		if ph.firstErr == nil {
			ph.firstErr = err
		}
		return false
	}
	st, err := g.AppStatus(id)
	if err != nil || pendingTasks(st) > 0 {
		ph.failed++
		ph.unplaced++
		return false
	}
	ph.latMs = append(ph.latMs, ms(lat))
	ph.placedApps = append(ph.placedApps, id)
	ph.placedTasks += len(st.Tasks)
	ph.doneAt = append(ph.doneAt, time.Since(ph.start))
	return true
}

// rateWindows splits a phase into this many equal windows for the
// placement rate and the submit-latency median.
const rateWindows = 10

// window returns the window index of an instant of the phase.
func (ph *placePhase) window(at time.Duration) int {
	return min(int(at/(ph.wall/rateWindows)), rateWindows-1)
}

// latencyWindows groups the placed Submits' latencies by window.
func (ph *placePhase) latencyWindows() [][]float64 {
	groups := make([][]float64, rateWindows)
	for i, at := range ph.doneAt {
		w := ph.window(at)
		groups[w] = append(groups[w], ph.latMs[i])
	}
	return groups
}

// placementRate is tasks placed per wall second: the median over equal
// windows of apps placed per second, times the phase's mean tasks per app.
// The median keeps a burst of host contention in one window from moving
// the figure; the whole-phase task mean keeps the mix of app sizes from
// adding window-to-window noise.
func (ph *placePhase) placementRate() float64 {
	if len(ph.doneAt) == 0 || ph.wall <= 0 {
		return 0
	}
	counts := make([]float64, rateWindows)
	for _, at := range ph.doneAt {
		counts[ph.window(at)]++
	}
	width := (ph.wall / rateWindows).Seconds()
	for i := range counts {
		counts[i] /= width
	}
	return median(counts) * float64(ph.placedTasks) / float64(len(ph.doneAt))
}

// addFailures reports why submissions failed.
func (ph *placePhase) addFailures(out *outcome) {
	out.addReport("failed_unplaced", float64(ph.unplaced), "count")
	out.addReport("failed_submit_errors", float64(ph.failed-ph.unplaced), "count")
	if ph.firstErr != nil {
		out.notef("first submit error: %v", ph.firstErr)
	}
}

// checkPlacements verifies every placed app against the stub LRMs.
func checkPlacements(out *outcome, g *grm.GRM, stubs *stubFleet, apps []string) {
	var bad []string
	for _, id := range apps {
		st, err := g.AppStatus(id)
		if err != nil {
			bad = append(bad, fmt.Sprintf("app %s: %v", id, err))
			continue
		}
		bad = append(bad, stubs.checkPlaced(st)...)
	}
	for _, id := range stubs.repeatedExecutions() {
		bad = append(bad, fmt.Sprintf("task %s executed more than once", id))
	}
	for _, b := range firstN(bad, 5) {
		out.problemf("placement: %s", b)
	}
}

func runPlace(opts runOpts) (*outcome, error) {
	c := placeConfigFor(opts)
	out := &outcome{}
	var f *placeFleet
	var setups []float64
	for i := 0; i < c.setups; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		t0 := time.Now()
		nf, err := newPlaceFleet(opts.seed, c)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		f = nf
	}
	defer f.close()
	out.notef("fleet: %d nodes, %d%% seeded reservation refusals, setups %v s", c.nodes, stubRefuseMill/10, setups)
	measure := time.Duration(opts.seconds * float64(time.Second))

	if !opts.trace {
		ph := runPlacePhase(f, opts.seed, c, measure, nil, nil)
		out.attempted, out.failed = ph.attempted, ph.failed
		ph.addFailures(out)
		checkPlacements(out, f.g, f.stubs, ph.placedApps)
		out.addE2E("setup_s", median(setups), "s")
		addSubmitLatency(out, ph.latencyWindows())
		out.addE2E("placements_per_s", ph.placementRate(), "1/s")
		out.addE2E("heap_mb", heapMB(), "MB")
		runtime.KeepAlive(f)
		return out, nil
	}

	// Traced run: the same submission sequence three times, untraced (proc
	// costs), traced with probes, and untraced again; the two untraced
	// phases bracket the traced one as the overhead baseline.
	p0 := readProc()
	base := runPlacePhase(f, opts.seed, c, measure/3, nil, nil)
	p1 := readProc()
	rec := newRecorder()
	f.o.SetInterceptor(interceptor{rec: rec, lane: 0})
	probe := mixProber(opts.seed, c.probeEvery, c.thresholds)
	s0, r0 := f.g.Stats(), f.stubs.refusals.Load()
	traced := runPlacePhase(f, opts.seed, c, measure/3, rec, probe)
	s1, r1 := f.g.Stats(), f.stubs.refusals.Load()
	f.o.SetInterceptor(nil)
	after := runPlacePhase(f, opts.seed, c, measure/3, nil, nil)

	var placed []string
	for _, ph := range []placePhase{base, traced, after} {
		out.attempted += ph.attempted
		out.failed += ph.failed
		placed = append(placed, ph.placedApps...)
	}
	checkPlacements(out, f.g, f.stubs, placed)
	finishTrace(out, rec, opts, "place-10k", nil)
	probe.addLayer(out)
	grmLayer(out, s0, s1)
	out.addLayer("lrm.reserve_refusals", float64(r1-r0), "count")
	// Fixed on this workload: the stub LRMs never evict, and every node
	// registered at set-up, so the traced phase sends no update.
	out.addLayer("lrm.tasks_evicted", 0, "count")
	out.addLayer("lrm.updates_sent", 0, "count")
	addProcLayer(out, p0, p1, base.placedTasks)
	out.addLayer("bench.trace_overhead_frac", overheadFrac(traced.latMs, base.latMs, after.latMs), "frac")
	return out, nil
}

// overheadFrac compares the wall time of the common prefix of runs of the
// same submission sequence: the traced run against the mean of the
// untraced runs that bracket it, so drift over the run cancels.
func overheadFrac(traced, before, after []float64) float64 {
	n := min(len(traced), len(before), len(after))
	if n == 0 {
		return 0
	}
	var t, u float64
	for i := 0; i < n; i++ {
		t += traced[i]
		u += (before[i] + after[i]) / 2
	}
	return t/u - 1
}
