package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"integrade/internal/orb"
)

// Span names recorded around calls into the program under test.
const (
	spanSubmit  = "grm.submit"  // GRM.Submit, GRMClient.Submit or Grid.SubmitTo
	spanAdvance = "sim.advance" // Grid.Advance
)

// orbOps maps wire operation names to the metric names of the ORB ops the
// benchmark reports; every other op is folded into "other".
var orbOps = map[string]string{
	"update":        "update",
	"submit":        "submit",
	"reserve":       "reserve",
	"execute":       "execute",
	"notify":        "notify",
	"release":       "release",
	"appendEntries": "append_entries",
	"requestVote":   "request_vote",
}

// reportedOps lists the ORB ops in report order.
var reportedOps = []string{"update", "submit", "reserve", "execute", "notify", "release", "append_entries", "request_vote", "other"}

// span is one timed interval. Lanes separate independent callers (the
// submit path and the update path of wire-churn); parents are assigned by
// time containment within a lane when the trace is analysed.
type span struct {
	name   string
	lane   int
	start  int64 // ns since the recorder's base
	end    int64
	bytes  int // request + reply payload bytes (ORB spans)
	failed bool
	parent int // index into the recorder's spans, -1 for a root
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder keeps every span of a traced run in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// begin opens a bench span; the returned function closes it.
func (r *recorder) begin(name string, lane int) func() {
	if r == nil {
		return func() {}
	}
	start := r.now()
	return func() { r.add(span{name: name, lane: lane, start: start, end: r.now(), parent: -1}) }
}

// interceptor records one span per ORB delivery attempt. Installed through
// the ORB's public SetInterceptor hook; it always delivers exactly once.
type interceptor struct {
	rec  *recorder
	lane int
}

var _ orb.Interceptor = interceptor{}

// Intercept implements orb.Interceptor.
func (ic interceptor) Intercept(_ orb.Endpoint, _, op string, arg []byte, next func() ([]byte, error)) ([]byte, error) {
	start := ic.rec.now()
	reply, err := next()
	name, ok := orbOps[op]
	if !ok {
		name = "other"
	}
	ic.rec.add(span{name: "orb." + name, lane: ic.lane, start: start, end: ic.rec.now(),
		bytes: len(arg) + len(reply), failed: err != nil, parent: -1})
	return reply, err
}

// trace is an analysed recorder: spans sorted, parents assigned.
type trace struct {
	spans []span
}

// analyse sorts the spans by (lane, start, longest first) and assigns each
// span's parent: the innermost earlier span of its lane that contains it.
func (r *recorder) analyse() *trace {
	r.mu.Lock()
	spans := r.spans
	r.spans = nil
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end
	})
	var stack []int
	lane := -1
	for i := range spans {
		s := &spans[i]
		if s.lane != lane {
			stack, lane = stack[:0], s.lane
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
			stack = stack[:len(stack)-1]
		}
		s.parent = -1
		if len(stack) > 0 {
			s.parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
	return &trace{spans: spans}
}

// selfTimes returns, for every span named name, its duration minus the
// outermost ORB spans nested inside it whose op is not in keep. keep names
// ORB spans that are part of the measured call itself (the client side of
// a remote Submit) rather than work it delegates.
func (t *trace) selfTimes(name string, keep map[string]bool) []time.Duration {
	children := make(map[int][]int)
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	var out []time.Duration
	for i := range t.spans {
		s := &t.spans[i]
		if s.name != name {
			continue
		}
		// Walk the subtree; a delegated ORB span covers its own subtree,
		// so the walk stops there and the covered time is one interval.
		var busy int64
		stack := append([]int(nil), children[i]...)
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cs := &t.spans[c]
			if isORB(cs.name) && !keep[cs.name] {
				busy += cs.dur()
				continue
			}
			stack = append(stack, children[c]...)
		}
		out = append(out, time.Duration(max(s.dur()-busy, 0)))
	}
	return out
}

func isORB(name string) bool { return len(name) > 4 && name[:4] == "orb." }

// opStats aggregates the ORB spans of one op.
type opStats struct {
	calls, failed int
	busy          time.Duration
	durs          []float64 // µs
	bytes         int
}

func (t *trace) orbStats() map[string]*opStats {
	out := make(map[string]*opStats, len(reportedOps))
	for _, op := range reportedOps {
		out[op] = &opStats{}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if !isORB(s.name) {
			continue
		}
		st := out[s.name[4:]]
		st.calls++
		if s.failed {
			st.failed++
		}
		st.busy += time.Duration(s.dur())
		st.durs = append(st.durs, us(time.Duration(s.dur())))
		st.bytes += s.bytes
	}
	return out
}

// addORBLayer emits the orb.<op>.* figures. reserve and execute run on
// every workload, so all their figures are per-layer metrics; the other
// ops emit their call count as a per-layer metric, the rest as workload
// figures. request_vote (elections happen during set-up) and other (naming,
// GUPA, replication) are workload figures only.
func addORBLayer(out *outcome, t *trace) {
	stats := t.orbStats()
	for _, op := range reportedOps {
		st := stats[op]
		prefix := "orb." + op + "."
		full := op == "reserve" || op == "execute"
		callsLayer := full || (op != "request_vote" && op != "other")
		emit := func(name string, v float64, unit string, layer bool) {
			if layer {
				out.addLayer(prefix+name, v, unit)
			} else {
				out.addReport(prefix+name, v, unit)
			}
		}
		emit("calls", float64(st.calls), "count", callsLayer)
		emit("busy_ms", ms(st.busy), "ms", full)
		emit("p50_us", median(st.durs), "us", full)
		emit("bytes_per_call", float64(st.bytes)/float64(max(st.calls, 1)), "bytes", full)
		emit("failed", float64(st.failed), "count", false)
	}
}

// write stores the analysed spans as gzip-compressed tab-separated lines
// (index, name, lane, start ns, end ns, parent index, bytes, failed) under
// dir and returns the file's path.
func (t *trace) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.tsv.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // fails only for an invalid level
	bw := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(bw, "index\tname\tlane\tstart_ns\tend_ns\tparent\tbytes\tfailed")
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%t\n", i, s.name, s.lane, s.start, s.end, s.parent, s.bytes, s.failed)
	}
	err = bw.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// finishTrace analyses rec, emits the ORB and self-time figures, writes the
// span file, and returns the analysed trace.
func finishTrace(out *outcome, rec *recorder, opts runOpts, workload string, keep map[string]bool) *trace {
	t := rec.analyse()
	addORBLayer(out, t)
	self := t.selfTimes(spanSubmit, keep)
	vals := make([]float64, len(self))
	for i, d := range self {
		vals[i] = us(d)
	}
	out.addLayer("grm.submit.self_p50_us", median(vals), "us")
	out.notef("trace: %d spans", len(t.spans))
	if opts.traceDir != "" {
		path, err := t.write(opts.traceDir, workload, opts.seed)
		if err != nil {
			out.problemf("writing span file: %v", err)
		} else {
			out.notef("trace: spans written to %s", path)
		}
	}
	return t
}
