package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"integrade/internal/orb"
	"integrade/internal/protocol"
)

// declared is the metric list of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(t *testing.T) (e2e, layer []declared) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec.EndToEnd, spec.PerLayer
}

// TestDeclaredMatchesProgram pins BENCHMARK.json's metric lists to the
// sets the program checks it emits.
func TestDeclaredMatchesProgram(t *testing.T) {
	e2e, layer := loadDeclared(t)
	for _, c := range []struct {
		what string
		decl []declared
		prog []string
	}{{"end_to_end", e2e, endToEndNames}, {"per_layer", layer, perLayerNames}} {
		if len(c.decl) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", c.what, len(c.decl), len(c.prog))
			continue
		}
		for i := range c.decl {
			if c.decl[i].Name != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, program %q", c.what, i, c.decl[i].Name, c.prog[i])
			}
		}
	}
}

// TestSmokeEveryWorkload runs a short mode of each workload, untraced and
// traced, and checks the result line carries every declared metric with its
// declared unit.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer := loadDeclared(t)
	for _, w := range []string{"place-10k", "wire-churn", "grid-day"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := realMain([]string{"-workload", w, "-seed", "7", "-seconds", "0.5", "-trace", trace,
					"-short", "-trace-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Attempted < 1 || res.Failed < 0 {
					t.Fatalf("result %+v", res)
				}
				want := e2e
				if trace == "1" {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
						continue
					}
					if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, declared %q", d.Name, m.Unit, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %v", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestChecksRejectForgedOutputs feeds each correctness check a forged bad
// observation and expects it to object.
func TestChecksRejectForgedOutputs(t *testing.T) {
	t.Run("placement", func(t *testing.T) {
		f := newStubFleet(1)
		f.executed["a/t0"] = "n1"
		good := protocol.AppStatus{AppID: "a", Tasks: []protocol.TaskStatus{{TaskID: "a/t0", NodeID: "n1", State: protocol.TaskRunning}}}
		if bad := f.checkPlaced(good); len(bad) != 0 {
			t.Fatalf("genuine placement rejected: %v", bad)
		}
		for name, forged := range map[string]protocol.TaskStatus{
			"other node": {TaskID: "a/t0", NodeID: "n2", State: protocol.TaskRunning},
			"no node":    {TaskID: "a/t0", State: protocol.TaskRunning},
			"pending":    {TaskID: "a/t0", NodeID: "n1", State: protocol.TaskPending},
			"never ran":  {TaskID: "a/t1", NodeID: "n1", State: protocol.TaskRunning},
		} {
			st := protocol.AppStatus{AppID: "a", Tasks: []protocol.TaskStatus{forged}}
			if bad := f.checkPlaced(st); len(bad) == 0 {
				t.Errorf("%s: forged placement accepted", name)
			}
		}
	})

	t.Run("grid-day nodes", func(t *testing.T) {
		on := map[string][]string{"a/t0": {"n1"}, "a/t1": {"n1", "n2"}, "a/t2": {"n3"}}
		cases := []struct {
			name string
			task protocol.TaskStatus
			bad  bool
			lost int
		}{
			{"running where shown", protocol.TaskStatus{TaskID: "a/t0", NodeID: "n1", State: protocol.TaskRunning}, false, 0},
			{"running elsewhere", protocol.TaskStatus{TaskID: "a/t0", NodeID: "n9", State: protocol.TaskRunning}, true, 0},
			{"running on two nodes", protocol.TaskStatus{TaskID: "a/t1", NodeID: "n1", State: protocol.TaskRunning}, true, 0},
			{"done but running", protocol.TaskStatus{TaskID: "a/t2", NodeID: "n3", State: protocol.TaskDone}, true, 0},
			{"done on no node", protocol.TaskStatus{TaskID: "a/t3", State: protocol.TaskDone}, true, 0},
			{"lost", protocol.TaskStatus{TaskID: "a/t4", NodeID: "n4", State: protocol.TaskRunning}, false, 1},
		}
		for _, c := range cases {
			lost, bad := checkTaskNodes(protocol.AppStatus{Tasks: []protocol.TaskStatus{c.task}}, on)
			if (len(bad) > 0) != c.bad || lost != c.lost {
				t.Errorf("%s: problems %v, lost %d", c.name, bad, lost)
			}
		}
	})

	t.Run("wire-churn trader", func(t *testing.T) {
		c := wireConfigFor(runOpts{short: true})
		f, err := newWireFleet(1, c)
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		var out outcome
		f.checkTrader(&out)
		if len(out.problems) != 0 {
			t.Fatalf("genuine trader rejected: %v", out.problems)
		}
		f.acked[3]++ // claim an update the trader never saw
		f.checkTrader(&out)
		if len(out.problems) == 0 {
			t.Fatal("forged last update accepted")
		}
	})

	t.Run("backlog", func(t *testing.T) {
		var out outcome
		late := make([]float64, 100)
		for i := range late {
			late[i] = float64(i) // lateness grows by 1 ms per update
		}
		checkBacklog(&out, updResult{lateMs: late})
		if len(out.problems) == 0 {
			t.Fatal("growing backlog accepted")
		}
	})

	t.Run("metrics", func(t *testing.T) {
		out := &outcome{attempted: 1}
		for _, n := range endToEndNames {
			if n != "setup_s" && n != "heap_mb" {
				out.addE2E(n, 1, "x")
			}
		}
		out.addE2E("heap_mb", math.NaN(), "MB")
		checkOutcome(out, false)
		var missing, nan bool
		for _, p := range out.problems {
			missing = missing || strings.Contains(p, "setup_s not emitted")
			nan = nan || strings.Contains(p, "is NaN")
		}
		if !missing || !nan {
			t.Fatalf("problems %v", out.problems)
		}
	})
}

// TestTail pins the tail definition: the highest percentile of the whole
// sample that still has tailBeyond samples beyond it.
func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, pct, n := tail(xs); v != 90 || pct != 90 || n != 100 {
		t.Fatalf("tail of 1..100 = %v at p%v of %d, want 90 at p90 of 100", v, pct, n)
	}
	if v, pct, _ := tail(xs[:5]); v != 100 || pct != 100 {
		t.Fatalf("tail of 5 samples = %v at p%v, want their maximum at p100", v, pct)
	}
}

// TestStubsNeverRefuseTwiceInARow pins the stub fleet's refusal rule: a
// seeded share of reservations is refused, but never two in a row, so no
// placement meets the GRM's attempt limit.
func TestStubsNeverRefuseTwiceInARow(t *testing.T) {
	f := newStubFleet(7)
	stubs := []*stubLRM{f.servant(0, "a"), f.servant(1, "b"), f.servant(2, "c")}
	refused, prev := 0, false
	for i := 0; i < 3000; i++ {
		var req orb.Encoder
		protocol.ReserveRequest{Holder: "app"}.Encode(&req)
		enc, err := stubs[i%len(stubs)].Dispatch(protocol.OpReserve, orb.NewDecoder(req.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := protocol.DecodeReserveReply(orb.NewDecoder(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reply.Granted {
			if prev {
				t.Fatalf("reservation %d refused right after a refusal", i)
			}
			refused++
		}
		prev = !reply.Granted
	}
	if refused < 150 || refused > 400 {
		t.Fatalf("%d of 3000 reservations refused, want about 9%%", refused)
	}
}
