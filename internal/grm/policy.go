// Package grm implements the Global Resource Manager: the cluster-manager
// component that receives Information Update Protocol messages from LRMs
// (storing them in the Trading service, as the paper's GRM stores LRM
// information in the JacORB Trader), runs the Resource Reservation and
// Execution Protocol to place applications, and tracks application status
// for the ASCT.
package grm

import (
	"cmp"
	"slices"
	"strings"

	"integrade/internal/sim"
	"integrade/internal/trading"
)

// Policy orders candidate offers best-first for the reservation protocol.
// Offers are NodeStatus trader offers; implementations read their numeric
// properties.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Order returns the candidates in descending placement preference.
	Order(offers []trading.Offer, rng *sim.RNG) []trading.Offer
}

// Offer property keys written by the GRM's update handler.
const (
	PropNode          = "node"
	PropMIPSTotal     = "mips_total"
	PropMIPSFree      = "mips_free"
	PropRAMFree       = "ram_free"
	PropDiskFree      = "disk_free"
	PropNetFree       = "net_free"
	PropLAN           = "lan"
	PropOS            = "os"
	PropArch          = "arch"
	PropDedicated     = "dedicated"
	PropOwnerBusy     = "owner_busy"
	PropPredictedIdle = "predicted_idle_s"
	PropUpdatedUnix   = "updated_unix"
	PropMgrEpoch      = "mgr_epoch"
	PropWindowEnd     = "window_end_unix"
	PropWindowConf    = "window_conf"
)

func numProp(o trading.Offer, key string) float64 {
	v, ok := o.Properties[key]
	if !ok {
		return 0
	}
	n, _ := v.AsNumber()
	return n
}

func boolProp(o trading.Offer, key string) bool {
	v, ok := o.Properties[key]
	if !ok {
		return false
	}
	b, _ := v.AsBool()
	return b
}

// scoredOffer is one candidate's precomputed sort keys (primary a,
// secondary b) and its position in the policy's input.
type scoredOffer struct {
	a, b float64
	i    int
}

// orderByScore returns offers sorted by (a desc, b desc, input position
// asc), where keys computes each offer's (a, b) exactly once. The input
// position makes the order total, so the result equals a stable sort on
// (a desc, b desc) while the comparator reads no properties.
func orderByScore(offers []trading.Offer, keys func(o *trading.Offer) (a, b float64)) []trading.Offer {
	if len(offers) == 0 {
		return nil
	}
	scored := make([]scoredOffer, len(offers))
	for i := range offers {
		a, b := keys(&offers[i])
		scored[i] = scoredOffer{a: a, b: b, i: i}
	}
	slices.SortFunc(scored, func(x, y scoredOffer) int {
		if c := cmp.Compare(y.a, x.a); c != 0 {
			return c
		}
		if c := cmp.Compare(y.b, x.b); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	out := make([]trading.Offer, len(offers))
	for j, sc := range scored {
		out[j] = offers[sc.i]
	}
	return out
}

// BestFit prefers nodes with the most free CPU, breaking ties toward more
// free RAM — a pure load-balance policy blind to usage patterns.
type BestFit struct{}

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// pureOrder marks BestFit's Order as stateless, enabling per-batch
// candidate caching in the admission matcher.
func (BestFit) pureOrder() {}

// Order implements Policy.
func (BestFit) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	return orderByScore(offers, func(o *trading.Offer) (float64, float64) {
		return numProp(*o, PropMIPSFree), numProp(*o, PropRAMFree)
	})
}

// UsageAware prefers nodes predicted to stay idle the longest (dedicated
// nodes count as indefinitely idle), breaking ties toward free CPU — the
// paper's LUPA/GUPA-informed scheduling.
type UsageAware struct{}

// Name implements Policy.
func (UsageAware) Name() string { return "usage-aware" }

// pureOrder marks UsageAware's Order as stateless, enabling per-batch
// candidate caching in the admission matcher.
func (UsageAware) pureOrder() {}

// Order implements Policy.
func (UsageAware) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	return orderByScore(offers, func(o *trading.Offer) (float64, float64) {
		idle := numProp(*o, PropPredictedIdle)
		if boolProp(*o, PropDedicated) {
			idle = 7 * 24 * 3600
		}
		if boolProp(*o, PropOwnerBusy) {
			idle = 0
		}
		return idle, numProp(*o, PropMIPSFree)
	})
}

// Random shuffles candidates uniformly — the naive baseline.
type Random struct{}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Order implements Policy.
func (Random) Order(offers []trading.Offer, rng *sim.RNG) []trading.Offer {
	out := append([]trading.Offer(nil), offers...)
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// RoundRobin rotates through candidates in node-ID order, spreading load
// without any resource awareness.
type RoundRobin struct {
	next int
}

// Name implements Policy.
func (*RoundRobin) Name() string { return "round-robin" }

// Order implements Policy.
func (r *RoundRobin) Order(offers []trading.Offer, _ *sim.RNG) []trading.Offer {
	if len(offers) == 0 {
		return nil
	}
	type named struct {
		node string
		i    int
	}
	byNode := make([]named, len(offers))
	for i := range offers {
		node, _ := offers[i].Properties[PropNode].AsString()
		byNode[i] = named{node: node, i: i}
	}
	slices.SortFunc(byNode, func(x, y named) int {
		if c := strings.Compare(x.node, y.node); c != 0 {
			return c
		}
		return cmp.Compare(x.i, y.i)
	})
	out := make([]trading.Offer, len(offers))
	// Emit the node-ID order rotated to start at r.next.
	start := r.next % len(out)
	r.next++
	for j := range out {
		out[j] = offers[byNode[(start+j)%len(out)].i]
	}
	return out
}
