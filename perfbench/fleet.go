package main

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"integrade/internal/grm"
	"integrade/internal/orb"
	"integrade/internal/protocol"
	"integrade/internal/resource"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// stubFleet is the LRM side of place-10k and wire-churn: one stub servant
// per node that grants reservations except for a seeded share, and records
// which node every task was executed on so placements can be checked.
//
// The fleet never refuses two reservations in a row. The GRM gives up on a
// task after grm.DefaultMaxAttempts refusals and leaves it pending, by
// design; with independent 10% refusals that happens to about one task in
// 10^8, about once per hundred sets of benchmark runs, and the run would
// count a failure that another run of the same seed does not. Every
// workload drives reservations from one placement at a time, so the rule
// bounds each placement to two reserve calls per task.
type stubFleet struct {
	seed        uint64
	refusals    atomic.Int64
	lastRefused atomic.Bool

	mu       sync.Mutex
	executed map[string]string // task ID -> node ID
	repeats  []string          // task IDs executed more than once
}

// stubRefuseMill is the stubs' refusal rate per thousand reservations.
const stubRefuseMill = 100

func newStubFleet(seed int64) *stubFleet {
	return &stubFleet{seed: uint64(seed), executed: make(map[string]string)}
}

// stubLRM is one node's stand-in LRM.
type stubLRM struct {
	fleet  *stubFleet
	nodeID string
	salt   uint64
	calls  atomic.Uint64
}

func (f *stubFleet) servant(idx int, nodeID string) *stubLRM {
	return &stubLRM{fleet: f, nodeID: nodeID, salt: uint64(idx) << 32}
}

// splitmix64 is a stateless mixer: the refusal decision for the k-th
// reservation at a node is a pure function of (seed, node, k).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Dispatch implements orb.Servant.
func (s *stubLRM) Dispatch(op string, req *orb.Decoder) (*orb.Encoder, error) {
	f := s.fleet
	switch op {
	case protocol.OpReserve:
		if _, err := protocol.DecodeReserveRequest(req); err != nil {
			return nil, orb.Errorf(orb.CodeMarshal, "reserve: %v", err)
		}
		k := s.calls.Add(1)
		refuse := splitmix64(f.seed^s.salt^k)%1000 < stubRefuseMill && !f.lastRefused.Load()
		f.lastRefused.Store(refuse)
		var e orb.Encoder
		if refuse {
			f.refusals.Add(1)
			protocol.ReserveReply{Reason: "busy"}.Encode(&e)
		} else {
			protocol.ReserveReply{Granted: true, ReservationID: fmt.Sprintf("%s/r%d", s.nodeID, k)}.Encode(&e)
		}
		return &e, nil
	case protocol.OpExecute:
		r, err := protocol.DecodeExecuteRequest(req)
		if err != nil {
			return nil, orb.Errorf(orb.CodeMarshal, "execute: %v", err)
		}
		f.mu.Lock()
		if _, dup := f.executed[r.TaskID]; dup {
			f.repeats = append(f.repeats, r.TaskID)
		}
		f.executed[r.TaskID] = s.nodeID
		f.mu.Unlock()
		return &orb.Encoder{}, nil
	case protocol.OpRelease:
		return &orb.Encoder{}, nil
	default:
		return nil, orb.Errorf(orb.CodeBadOperation, "stub LRM: no operation %q", op)
	}
}

// statusGen draws node descriptions: heterogeneous capacities, a spread
// of free CPU, a minority of dedicated and owner-busy machines, and
// predicted idle spans for the usage-aware policy to rank.
type statusGen struct {
	rng *sim.RNG
}

// freeMIPSRange is the span of offered free CPU; mixGen's thresholds are
// placed inside it to select a chosen share of the fleet.
const (
	freeMIPSLo = 100.0
	freeMIPSHi = 2000.0
)

func (sg statusGen) status(nodeID string, lan int, ref orb.ObjectRef, ts time.Time) protocol.NodeStatus {
	r := sg.rng
	capMIPS := 500 + 2500*r.Float64()
	return protocol.NodeStatus{
		NodeID:   nodeID,
		LRMRef:   ref,
		Platform: resource.Platform{Arch: "amd64", OS: "linux"},
		LANID:    fmt.Sprintf("lan%d", lan),
		Capacity: resource.Vector{MIPS: capMIPS, RAMMB: 2048, DiskMB: 40960, NetMbps: 100},
		GridFree: resource.Vector{
			MIPS:    freeMIPSLo + (freeMIPSHi-freeMIPSLo)*r.Float64(),
			RAMMB:   256 + float64(r.Intn(1792)),
			DiskMB:  20480,
			NetMbps: 100,
		},
		Dedicated:     r.Bool(0.1),
		OwnerBusy:     r.Bool(0.1),
		PredictedIdle: time.Duration(r.Intn(8*3600)) * time.Second,
		Timestamp:     ts,
	}
}

// mixThreshold is one free-CPU requirement with its draw weight.
type mixThreshold struct {
	match  float64 // share of the fleet whose free CPU meets the threshold
	weight float64
}

// placeThresholds put the median draw in the middle of the 60% band
// (cumulative weight 0.2 to 0.8): Select and Order cost grow with the
// matched share, so latency is banded, and a median near a band edge would
// jump between bands with the sample's composition.
var placeThresholds = []mixThreshold{{0.05, 0.1}, {0.3, 0.1}, {0.6, 0.6}, {0.9, 0.2}}

// wireThresholds are placeThresholds for a 200-node cluster: the narrowest
// band still matches ~30 nodes, so every app stays placeable while the
// updates reshuffle free CPU.
var wireThresholds = []mixThreshold{{0.15, 0.1}, {0.3, 0.1}, {0.6, 0.6}, {0.9, 0.2}}

// mixGen draws the seeded application mix: sequential apps, parametric
// bags of 8 and BSP gangs of 8, each asking for a free-CPU threshold that
// a chosen share of the fleet meets. Kinds and thresholds are dealt from
// decks: every deckSize draws hold each kind and threshold in proportion
// to its weight, in an order the seed shuffles. The seed then changes the
// order of the apps but not the mix a run measures.
type mixGen struct {
	rng     *sim.RNG
	seq     int
	matches deck[float64]
	kinds   deck[protocol.AppKind]
}

// gangSize is the task count of the mix's parametric bags and BSP gangs.
const gangSize = 8

// deckSize is the number of cards per deck; weights are multiples of
// 1/deckSize.
const deckSize = 20

// kindWeights is the app-kind mix: 50% sequential, 30% parametric, 20% BSP.
var kindWeights = []struct {
	kind   protocol.AppKind
	weight float64
}{{protocol.AppSequential, 0.5}, {protocol.AppParametric, 0.3}, {protocol.AppBSP, 0.2}}

func newMixGen(rng *sim.RNG, thresholds []mixThreshold) *mixGen {
	m := &mixGen{rng: rng}
	for _, t := range thresholds {
		m.matches.add(t.match, t.weight)
	}
	for _, k := range kindWeights {
		m.kinds.add(k.kind, k.weight)
	}
	return m
}

// deck deals its cards in a freshly shuffled order each round.
type deck[T any] struct {
	cards []T
	next  int
}

func (d *deck[T]) add(card T, weight float64) {
	for i := 0; i < int(math.Round(weight*deckSize)); i++ {
		d.cards = append(d.cards, card)
	}
}

func (d *deck[T]) draw(r *sim.RNG) T {
	if d.next == 0 {
		r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.next]
	d.next = (d.next + 1) % len(d.cards)
	return c
}

func (m *mixGen) next() protocol.ApplicationSpec {
	m.seq++
	match := m.matches.draw(m.rng)
	spec := protocol.ApplicationSpec{
		Name:        fmt.Sprintf("app-%d", m.seq),
		Kind:        m.kinds.draw(m.rng),
		NumTasks:    1,
		WorkPerTask: 1000 + 9000*m.rng.Float64(),
		Alloc: resource.Vector{
			MIPS:  freeMIPSHi - match*(freeMIPSHi-freeMIPSLo),
			RAMMB: 64,
		},
	}
	if spec.Kind != protocol.AppSequential {
		spec.NumTasks = gangSize
	}
	return spec
}

// constraintFor renders the trader constraint the GRM builds for spec's
// allocation and minimums (the subset of fields the benchmark's specs set),
// so probes issue the same queries placement does.
func constraintFor(spec protocol.ApplicationSpec) string {
	alloc := spec.EffectiveAlloc()
	parts := []string{
		fmt.Sprintf("%s >= %g", grm.PropMIPSFree, alloc.MIPS),
		fmt.Sprintf("%s >= %g", grm.PropRAMFree, alloc.RAMMB),
	}
	if alloc.DiskMB > 0 {
		parts = append(parts, fmt.Sprintf("%s >= %g", grm.PropDiskFree, alloc.DiskMB))
	}
	if alloc.NetMbps > 0 {
		parts = append(parts, fmt.Sprintf("%s >= %g", grm.PropNetFree, alloc.NetMbps))
	}
	if m := spec.Requirements.Min.MIPS; m > 0 {
		parts = append(parts, fmt.Sprintf("%s >= %g", grm.PropMIPSTotal, m))
	}
	return strings.Join(parts, " and ")
}

// prober times the two stages of candidate selection on the live trader:
// a SelectShared query and the usage-aware ordering of its result. Probes
// draw their queries from their own generator and only read the trader,
// so they never change what the workload does.
type prober struct {
	every   int
	n       int
	spec    func() protocol.ApplicationSpec
	selects []float64 // µs
	orders  []float64 // µs
	matched []float64
	spent   time.Duration
}

func newProber(every int, spec func() protocol.ApplicationSpec) *prober {
	return &prober{every: every, spec: spec}
}

// mixProber probes with the workload's own app mix, drawn from a separate
// RNG stream.
func mixProber(seed int64, every int, thresholds []mixThreshold) *prober {
	return newProber(every, newMixGen(sim.NewRNG(seed).Fork("probe"), thresholds).next)
}

// tick runs a probe on every every-th call.
func (p *prober) tick(tr *trading.Service) {
	if p == nil {
		return
	}
	p.n++
	if p.n%p.every != 0 {
		return
	}
	start := time.Now()
	q := trading.Query{ServiceType: grm.NodeStatusType, Constraint: constraintFor(p.spec())}
	offers, err := tr.SelectShared(q)
	sel := time.Now()
	if err == nil {
		grm.UsageAware{}.Order(offers, nil)
	}
	end := time.Now()
	p.selects = append(p.selects, us(sel.Sub(start)))
	p.orders = append(p.orders, us(end.Sub(sel)))
	p.matched = append(p.matched, float64(len(offers)))
	p.spent += end.Sub(start)
}

func (p *prober) addLayer(out *outcome) {
	out.addLayer("trading.select_p50_us", median(p.selects), "us")
	out.addLayer("grm.policy.order_p50_us", median(p.orders), "us")
	out.addLayer("trading.matched_per_select", mean(p.matched), "count")
	out.addReport("probe_samples", float64(len(p.selects)), "count")
}

// grmLayer emits the GRM counters of the interval [from, to].
func grmLayer(out *outcome, from, to grm.Stats) {
	placed := to.TasksPlaced - from.TasksPlaced
	rounds := to.NegotiationRounds - from.NegotiationRounds
	out.addLayer("grm.quorum_batches", float64(to.QuorumBatches-from.QuorumBatches), "count")
	out.addLayer("grm.reserve_per_placement", float64(rounds)/float64(max(placed, 1)), "count")
	out.addLayer("grm.refusal_ratio", float64(to.Refusals-from.Refusals)/float64(max(rounds, 1)), "frac")
	out.addLayer("grm.placement_failures", float64(to.PlacementFailures-from.PlacementFailures), "count")
	out.addLayer("grm.tasks_evicted", float64(to.TasksEvicted-from.TasksEvicted), "count")
	out.addLayer("grm.restarts", float64(to.Restarts-from.Restarts), "count")
}

// checkPlaced verifies one app the GRM reported placed: every task is
// Running on a node, and that node is the one the stub LRMs saw execute it,
// exactly once.
func (f *stubFleet) checkPlaced(st protocol.AppStatus) []string {
	var bad []string
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range st.Tasks {
		if t.State != protocol.TaskRunning && t.State != protocol.TaskDone {
			bad = append(bad, fmt.Sprintf("task %s is %v after placement", t.TaskID, t.State))
			continue
		}
		if t.NodeID == "" {
			bad = append(bad, fmt.Sprintf("task %s placed on no node", t.TaskID))
			continue
		}
		if got, ok := f.executed[t.TaskID]; !ok || got != t.NodeID {
			bad = append(bad, fmt.Sprintf("task %s shown on %s but executed on %q", t.TaskID, t.NodeID, got))
		}
	}
	return bad
}

// repeatedExecutions returns the task IDs executed on more than one
// occasion (a task must run on exactly one node).
func (f *stubFleet) repeatedExecutions() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.repeats...)
}

// pendingTasks counts the tasks of st that were not placed.
func pendingTasks(st protocol.AppStatus) int {
	n := 0
	for _, t := range st.Tasks {
		if t.State == protocol.TaskPending {
			n++
		}
	}
	return n
}

// firstN keeps error listings short.
func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return append(xs[:n:n], fmt.Sprintf("... and %d more", len(xs)-n))
	}
	return xs
}
