package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"integrade/internal/asct"
	"integrade/internal/core"
	"integrade/internal/grm"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/usage"
)

// grid-day: a full core.Grid on the virtual clock. One cluster runs as a
// 3-member Raft replica set with office-worker desktops and a few dedicated
// nodes; a seeded Poisson stream of checkpointing, restart-on-eviction apps
// arrives over one simulated day, and the clock advances in 1-minute steps
// until every app finishes or the horizon passes. It runs the whole task
// lifecycle: submit, reserve, run, evict, restart from checkpoint, done.
// Its sim-clock outcomes repeat exactly per seed.
//
// A task the GRM shows Running on a node that no longer runs it is lost: no
// node will ever report its completion. Lost tasks are counted, and their
// apps count as failed (unfinished); a day whose only unfinished work is
// lost ends at the next completion check instead of idling to the horizon.

type dayConfig struct {
	desktops      int
	dedicated     int
	dedicatedMIPS float64
	appsPerDay    float64
	arrivals      time.Duration // span of the arrival stream
	horizon       time.Duration // give up on unfinished apps after this
	step          time.Duration
	poll          time.Duration // completion check cadence after the last arrival
	updatePeriod  time.Duration
	schedPeriod   time.Duration
	replicas      int // extra replica-set members beside the incumbent
	minSetups     int // setup_s is the median of at least this many set-ups
	probeEvery    int
	// dayWall is the wall time one simulated day takes on the host the
	// benchmark was tuned on (2 vCPUs, ~4 s); an untraced run drives
	// --seconds / dayWall days, a count fixed by its arguments, so a slower
	// build measures the same days rather than fewer.
	dayWall time.Duration
}

func dayConfigFor(opts runOpts) dayConfig {
	c := dayConfig{
		desktops: 200, dedicated: 20, dedicatedMIPS: 1000,
		appsPerDay: 300, arrivals: 24 * time.Hour, horizon: 72 * time.Hour,
		step: time.Minute, poll: 15 * time.Minute,
		updatePeriod: 5 * time.Minute, schedPeriod: time.Minute,
		replicas: 2, minSetups: 15, probeEvery: 4,
		dayWall: 4 * time.Second,
	}
	if opts.short {
		c.desktops, c.dedicated, c.appsPerDay = 20, 4, 30
		c.arrivals, c.horizon = 6*time.Hour, 30*time.Hour
		c.minSetups = 3
	}
	return c
}

// dayAlloc is every task's per-process allocation; work sizes are drawn
// as run times at this rate.
var dayAlloc = resource.Vector{MIPS: 250, RAMMB: 128}

// arrival is one app of the seeded stream.
type arrival struct {
	at   time.Duration
	spec func() *asct.Builder
}

// dayArrivals draws the Poisson stream: 60% sequential (2-6 h of work),
// 30% parametric x8 (1-3 h per task), 10% BSP x4 (2-4 h per process), all
// checkpointing every 15 minutes of work and restarting on eviction. The
// demand exceeds the dedicated nodes' capacity at night, so desktops take
// work and lose it when their owners arrive.
func dayArrivals(seed int64, c dayConfig) []arrival {
	rng := sim.NewRNG(seed).Fork("arrivals")
	gap := float64(c.arrivals) / c.appsPerDay
	hours := func(lo, hi float64) float64 { return dayAlloc.MIPS * 3600 * (lo + (hi-lo)*rng.Float64()) }
	var out []arrival
	at := time.Duration(rng.Exp(gap))
	for i := 0; at < c.arrivals; i++ {
		name := fmt.Sprintf("day-%d", i)
		var build func() *asct.Builder
		switch k := rng.Float64(); {
		case k < 0.6:
			w := hours(2, 6)
			build = func() *asct.Builder { return asct.NewApplication(name).Sequential(w) }
		case k < 0.9:
			w := hours(1, 3)
			build = func() *asct.Builder { return asct.NewApplication(name).Parametric(8, w) }
		default:
			w := hours(2, 4)
			build = func() *asct.Builder { return asct.NewApplication(name).BSP(4, w) }
		}
		out = append(out, arrival{at: at, spec: func() *asct.Builder {
			return build().Allocate(dayAlloc).Checkpoint(dayAlloc.MIPS * 900).RestartEvicted()
		}})
		at += time.Duration(rng.Exp(gap))
	}
	return out
}

// simOutcome is everything a day decides on the simulated clock. Two runs
// of the same seed must produce identical values.
type simOutcome struct {
	apps, tasks, unfinished int
	lost                    int // tasks Running in the GRM on no node
	evictions, restarts     int
	placed, reserves        int
	makespanH               float64
	turnP50H                float64
	turnTailH               float64
	turnTailPct             float64
	workLostFrac            float64
	fingerprint             uint64 // per-app finish times, negotiations and restarts
}

// dayResult is one simulated day's measurements.
type dayResult struct {
	grid       *core.Grid
	cluster    *core.Cluster
	setup      time.Duration
	wall       time.Duration // drive loop wall time, set-up and probes excluded
	simElapsed time.Duration
	latMs      []float64 // Submits that returned with every task placed
	attempted  int
	failed     int
	firstErr   error // first Submit error
	sim        simOutcome
	stats      grm.Stats
	lrmRefuse  int
	lrmEvicted int
	lrmUpdates int
	problems   []string
}

func buildDay(seed int64, c dayConfig) (*core.Grid, *core.Cluster, error) {
	g := core.NewGrid(core.WithSeed(seed))
	cl, err := g.AddCluster("day",
		core.WithPolicy(grm.UsageAware{}),
		core.WithSchedulePeriod(c.schedPeriod),
		core.WithUpdatePeriod(c.updatePeriod))
	if err == nil {
		_, err = cl.AddNodes(core.DesktopNodes(c.desktops, usage.OfficeWorker))
	}
	if err == nil {
		_, err = cl.AddNodes(core.DedicatedNodes(c.dedicated, c.dedicatedMIPS))
	}
	if err == nil {
		err = cl.EnableReplicaSet(c.replicas)
	}
	if err != nil {
		g.Stop()
		return nil, nil, err
	}
	return g, cl, nil
}

// runDay builds one grid, drives one simulated day through it, and leaves
// the grid running for the caller to measure and stop. rec and probe may be
// nil.
func runDay(seed int64, c dayConfig, rec *recorder, probe *prober) (*dayResult, error) {
	runtime.GC()
	t0 := time.Now()
	g, cl, err := buildDay(seed, c)
	if err != nil {
		return nil, err
	}
	res := &dayResult{grid: g, cluster: cl, setup: time.Since(t0)}
	arrivals := dayArrivals(seed, c)
	if rec != nil {
		g.ORB().SetInterceptor(interceptor{rec: rec, lane: 0})
	}
	var probeSpent time.Duration
	if probe != nil {
		probeSpent = probe.spent
	}
	start := g.Now()
	wallStart := time.Now()
	var handles []*core.Handle
	next := 0
	for elapsed := time.Duration(0); ; elapsed += c.step {
		for next < len(arrivals) && arrivals[next].at <= elapsed {
			b := arrivals[next].spec()
			next++
			done := rec.begin(spanSubmit, 0)
			t := time.Now()
			h, err := g.SubmitTo("day", b)
			lat := time.Since(t)
			done()
			res.attempted++
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
				continue
			}
			handles = append(handles, h)
			if st, err := h.Status(); err == nil && pendingTasks(st) == 0 {
				res.latMs = append(res.latMs, ms(lat))
			}
			probe.tick(cl.GRM().Trader())
		}
		if next == len(arrivals) && elapsed%c.poll == 0 && settled(cl, handles) {
			break
		}
		if elapsed >= c.horizon {
			break
		}
		done := rec.begin(spanAdvance, 0)
		err := g.Advance(c.step)
		done()
		if err != nil {
			g.Stop()
			return nil, err
		}
	}
	res.wall = time.Since(wallStart)
	if probe != nil {
		res.wall -= probe.spent - probeSpent
	}
	if rec != nil {
		g.ORB().SetInterceptor(nil)
	}
	res.simElapsed = g.Now().Sub(start)
	res.stats = cl.GRM().Stats()
	for _, l := range cl.LRMs() {
		s := l.Stats()
		res.lrmRefuse += s.ReserveRefusals
		res.lrmEvicted += s.TasksEvicted
		res.lrmUpdates += s.UpdatesSent
	}
	res.sim = summarizeDay(start, handles, res.stats, cl.DeliveredWork())
	res.failed += res.sim.unfinished
	var problems []string
	res.sim.lost, problems = checkDayPlacement(cl, handles)
	res.problems = append(res.problems, problems...)
	return res, nil
}

// runningOn maps every task the nodes run to the nodes running it.
func runningOn(cl *core.Cluster) map[string][]string {
	on := make(map[string][]string)
	for _, n := range cl.Nodes() {
		for _, id := range n.RunningTasks() {
			on[id] = append(on[id], n.ID())
		}
	}
	return on
}

// settled reports whether no app can make further progress: every task is
// Done or lost.
func settled(cl *core.Cluster, hs []*core.Handle) bool {
	var on map[string][]string
	for _, h := range hs {
		st, err := h.Status()
		if err != nil {
			return false
		}
		for _, t := range st.Tasks {
			switch t.State {
			case protocol.TaskDone:
			case protocol.TaskRunning:
				if on == nil {
					on = runningOn(cl)
				}
				if len(on[t.TaskID]) > 0 {
					return false
				}
			default:
				return false
			}
		}
	}
	return true
}

func summarizeDay(start time.Time, hs []*core.Handle, stats grm.Stats, delivered float64) simOutcome {
	o := simOutcome{apps: len(hs), evictions: stats.TasksEvicted, restarts: stats.Restarts,
		placed: stats.TasksPlaced, reserves: stats.NegotiationRounds}
	var turn []float64
	var last time.Time
	fp := fnv.New64a()
	for _, h := range hs {
		st, err := h.Status()
		if err != nil || !st.Done() {
			o.unfinished++
			fmt.Fprintf(fp, "%s unfinished;", h.ID())
			continue
		}
		o.tasks += len(st.Tasks)
		turn = append(turn, st.Finished.Sub(st.Submitted).Hours())
		if st.Finished.After(last) {
			last = st.Finished
		}
		fmt.Fprintf(fp, "%s %d %d;", h.ID(), st.Finished.UnixNano(), st.Negotiations)
		for _, t := range st.Tasks {
			fmt.Fprintf(fp, "%s %s %d;", t.TaskID, t.NodeID, t.Restarts)
		}
	}
	if !last.IsZero() {
		o.makespanH = last.Sub(start).Hours()
	}
	o.turnP50H = median(turn)
	o.turnTailH, o.turnTailPct, _ = tail(turn)
	if delivered > 0 {
		o.workLostFrac = stats.WorkLostMI / delivered
	}
	o.fingerprint = fp.Sum64()
	return o
}

// checkDayPlacement verifies that every task the GRM shows Running sits on
// exactly the node it names, that finished tasks sit on none, and that no
// task runs on two nodes. Running tasks on no node are lost, counted and
// returned rather than reported as problems: their apps are already
// counted as failed.
func checkDayPlacement(cl *core.Cluster, hs []*core.Handle) (lost int, bad []string) {
	on := runningOn(cl)
	for id, nodes := range on {
		if len(nodes) > 1 {
			bad = append(bad, fmt.Sprintf("task %s runs on %v", id, nodes))
		}
	}
	for _, h := range hs {
		st, err := h.Status()
		if err != nil {
			bad = append(bad, fmt.Sprintf("app %s: %v", h.ID(), err))
			continue
		}
		l, b := checkTaskNodes(st, on)
		lost += l
		bad = append(bad, b...)
	}
	return lost, firstN(bad, 5)
}

// checkTaskNodes compares one app's status with the nodes' running lists.
func checkTaskNodes(st protocol.AppStatus, on map[string][]string) (lost int, bad []string) {
	for _, t := range st.Tasks {
		switch t.State {
		case protocol.TaskRunning:
			nodes := on[t.TaskID]
			if len(nodes) == 0 {
				lost++
			} else if len(nodes) != 1 || nodes[0] != t.NodeID {
				bad = append(bad, fmt.Sprintf("task %s shown Running on %q but runs on %v", t.TaskID, t.NodeID, nodes))
			}
		case protocol.TaskDone:
			if t.NodeID == "" {
				bad = append(bad, fmt.Sprintf("task %s Done on no node", t.TaskID))
			}
			if nodes := on[t.TaskID]; len(nodes) > 0 {
				bad = append(bad, fmt.Sprintf("task %s Done but still runs on %v", t.TaskID, nodes))
			}
		}
	}
	return lost, bad
}

func addSimFigures(out *outcome, s simOutcome) {
	out.addReport("makespan_h", s.makespanH, "h")
	out.addReport("turnaround_p50_h", s.turnP50H, "h")
	out.addReport("turnaround_tail_h", s.turnTailH, "h")
	out.addReport("turnaround_tail_pct", s.turnTailPct, "percentile")
	out.addReport("work_lost_frac", s.workLostFrac, "frac")
	out.addReport("apps", float64(s.apps), "count")
	out.addReport("tasks_done", float64(s.tasks), "count")
	out.addReport("tasks_evicted", float64(s.evictions), "count")
	out.addReport("unfinished_apps", float64(s.unfinished), "count")
	out.addReport("lost_tasks", float64(s.lost), "count")
	out.addReport("placements", float64(s.placed), "count")
	out.addReport("reserve_rpcs", float64(s.reserves), "count")
}

func runGridDay(opts runOpts) (*outcome, error) {
	c := dayConfigFor(opts)
	out := &outcome{}
	out.notef("fleet: %d office-worker desktops + %d dedicated, %d-member replica set; ~%g apps over %v, %v steps",
		c.desktops, c.dedicated, c.replicas+1, c.appsPerDay, c.arrivals, c.step)

	if !opts.trace {
		nDays := max(1, int(opts.seconds/c.dayWall.Seconds()))
		var days []*dayResult
		for i := 0; i < nDays; i++ {
			if len(days) > 0 {
				// Only the last day's grid stays alive for heap_mb.
				prev := days[len(days)-1]
				prev.grid.Stop()
				prev.grid, prev.cluster = nil, nil
			}
			d, err := runDay(opts.seed+int64(i)*7919, c, nil, nil)
			if err != nil {
				return nil, err
			}
			days = append(days, d)
		}
		last := days[len(days)-1]
		defer last.grid.Stop()
		setups := make([]float64, 0, len(days))
		for _, d := range days {
			setups = append(setups, d.setup.Seconds())
		}
		// Extra set-ups when few days fit, so setup_s is still a median.
		for len(setups) < c.minSetups {
			runtime.GC()
			t0 := time.Now()
			g, _, err := buildDay(opts.seed, c)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			g.Stop()
		}
		var lat [][]float64
		var rates []float64
		var wall, simT time.Duration
		for i, d := range days {
			out.attempted += d.attempted
			out.failed += d.failed
			lat = append(lat, d.latMs)
			wall += d.wall
			simT += d.simElapsed
			rates = append(rates, float64(d.stats.TasksPlaced)/d.wall.Seconds())
			for _, p := range d.problems {
				out.problemf("day %d: %s", i, p)
			}
			if d.firstErr != nil {
				out.notef("day %d: first submit error: %v", i, d.firstErr)
			}
		}
		out.addE2E("setup_s", median(setups), "s")
		addSubmitLatency(out, lat)
		// The median day, so one day slowed by host contention does not
		// move the figure.
		out.addE2E("placements_per_s", median(rates), "1/s")
		out.addE2E("heap_mb", heapMB(), "MB")
		out.addReport("days", float64(len(days)), "count")
		out.addReport("sim_speedup", simT.Seconds()/wall.Seconds(), "x")
		addSimFigures(out, days[0].sim)
		out.notef("day 0 fingerprint %016x", days[0].sim.fingerprint)
		return out, nil
	}

	// Traced run: the seed's first day untraced (a cold process: it pays
	// for heap growth), traced, then untraced again as the warm baseline of
	// the tracing overhead. All three must agree on every sim-clock outcome.
	p0 := readProc()
	cold, err := runDay(opts.seed, c, nil, nil)
	if err != nil {
		return nil, err
	}
	p1 := readProc()
	cold.grid.Stop()
	rec := newRecorder()
	probe := newProber(c.probeEvery, func() protocol.ApplicationSpec { return protocol.ApplicationSpec{Alloc: dayAlloc} })
	traced, err := runDay(opts.seed, c, rec, probe)
	if err != nil {
		return nil, err
	}
	traced.grid.Stop()
	t := finishTrace(out, rec, opts, "grid-day", nil)
	var advSelf time.Duration
	for _, d := range t.selfTimes(spanAdvance, nil) {
		advSelf += d
	}
	t, rec = nil, nil // drop the spans before the baseline day
	warm, err := runDay(opts.seed, c, nil, nil)
	if err != nil {
		return nil, err
	}
	defer warm.grid.Stop()
	for _, d := range []*dayResult{cold, traced, warm} {
		out.attempted += d.attempted
		out.failed += d.failed
		for _, p := range d.problems {
			out.problemf("%s", p)
		}
	}
	if cold.sim != traced.sim || warm.sim != traced.sim {
		out.problemf("sim-clock outcomes differ between the untraced and traced days: %+v, %+v, %+v", cold.sim, traced.sim, warm.sim)
	}
	out.addReport("sim.advance.self_ms", ms(advSelf), "ms")
	probe.addLayer(out)
	grmLayer(out, grm.Stats{}, traced.stats)
	out.addLayer("lrm.reserve_refusals", float64(traced.lrmRefuse), "count")
	out.addLayer("lrm.tasks_evicted", float64(traced.lrmEvicted), "count")
	out.addLayer("lrm.updates_sent", float64(traced.lrmUpdates), "count")
	addProcLayer(out, p0, p1, cold.stats.TasksPlaced)
	out.addLayer("bench.trace_overhead_frac", traced.wall.Seconds()/warm.wall.Seconds()-1, "frac")
	out.addReport("sim_speedup", warm.simElapsed.Seconds()/warm.wall.Seconds(), "x")
	addSimFigures(out, traced.sim)
	out.notef("day 0 fingerprint %016x (untraced %016x, %016x)", traced.sim.fingerprint, cold.sim.fingerprint, warm.sim.fingerprint)
	return out, nil
}
