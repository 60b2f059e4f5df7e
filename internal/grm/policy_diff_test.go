package grm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/sim"
	"integrade/internal/trading"
)

// The reference orderings below are the comparator-driven stable sorts the
// score-once policies replaced. The differential tests pin the new Order
// methods to them over seeded random fleets.

func refBestFit(offers []trading.Offer) []trading.Offer {
	out := append([]trading.Offer(nil), offers...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := numProp(out[i], PropMIPSFree), numProp(out[j], PropMIPSFree)
		if fi != fj {
			return fi > fj
		}
		return numProp(out[i], PropRAMFree) > numProp(out[j], PropRAMFree)
	})
	return out
}

func refUsageAware(offers []trading.Offer) []trading.Offer {
	score := func(o trading.Offer) float64 {
		idle := numProp(o, PropPredictedIdle)
		if boolProp(o, PropDedicated) {
			idle = 7 * 24 * 3600
		}
		if boolProp(o, PropOwnerBusy) {
			idle = 0
		}
		return idle
	}
	out := append([]trading.Offer(nil), offers...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := score(out[i]), score(out[j])
		if si != sj {
			return si > sj
		}
		return numProp(out[i], PropMIPSFree) > numProp(out[j], PropMIPSFree)
	})
	return out
}

type refRoundRobin struct{ next int }

func (r *refRoundRobin) order(offers []trading.Offer) []trading.Offer {
	out := append([]trading.Offer(nil), offers...)
	sort.SliceStable(out, func(i, j int) bool {
		ni, _ := out[i].Properties[PropNode].AsString()
		nj, _ := out[j].Properties[PropNode].AsString()
		return ni < nj
	})
	if len(out) == 0 {
		return out
	}
	start := r.next % len(out)
	r.next++
	return append(out[start:], out[:start]...)
}

// randomFleet draws n offers whose properties collide often (ties on every
// key), are sometimes missing or of the wrong type, and carry random
// dedicated/owner_busy overrides. Each offer's ID records its input
// position.
func randomFleet(rng *rand.Rand, n int) []trading.Offer {
	num := func(levels int) (constraint.Value, bool) {
		switch rng.IntN(10) {
		case 0:
			return constraint.Value{}, false
		case 1:
			return constraint.String("junk"), true
		default:
			return constraint.Number(float64(rng.IntN(levels) * 100)), true
		}
	}
	flag := func() (constraint.Value, bool) {
		switch rng.IntN(4) {
		case 0:
			return constraint.Value{}, false
		case 1:
			return constraint.Number(1), true
		default:
			return constraint.Bool(rng.IntN(3) == 0), true
		}
	}
	offers := make([]trading.Offer, n)
	for i := range offers {
		props := constraint.Properties{}
		if rng.IntN(8) != 0 {
			props[PropNode] = constraint.String(fmt.Sprintf("n%02d", rng.IntN(n/2+1)))
		} else if rng.IntN(2) == 0 {
			props[PropNode] = constraint.Number(float64(i))
		}
		for _, k := range []struct {
			key    string
			levels int
		}{{PropMIPSFree, 4}, {PropRAMFree, 3}, {PropPredictedIdle, 3}} {
			if v, ok := num(k.levels); ok {
				props[k.key] = v
			}
		}
		for _, key := range []string{PropDedicated, PropOwnerBusy} {
			if v, ok := flag(); ok {
				props[key] = v
			}
		}
		offers[i] = trading.Offer{ID: fmt.Sprint(i), ServiceType: NodeStatusType, Properties: props}
	}
	return offers
}

func offerIDs(offers []trading.Offer) []string {
	ids := make([]string, len(offers))
	for i, o := range offers {
		ids[i] = o.ID
	}
	return ids
}

func TestPolicyOrderMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 0))
	rr, ref := &RoundRobin{}, &refRoundRobin{}
	for trial := 0; trial < 400; trial++ {
		n := rng.IntN(60)
		if trial%50 == 0 {
			n = 0
		}
		offers := randomFleet(rng, n)
		for _, c := range []struct {
			name      string
			got, want []trading.Offer
		}{
			{"best-fit", BestFit{}.Order(offers, nil), refBestFit(offers)},
			{"usage-aware", UsageAware{}.Order(offers, nil), refUsageAware(offers)},
			{"round-robin", rr.Order(offers, sim.NewRNG(1)), ref.order(offers)},
		} {
			got, want := offerIDs(c.got), offerIDs(c.want)
			if !slices.Equal(got, want) || (c.got == nil) != (c.want == nil) {
				t.Fatalf("trial %d (%d offers): %s order\n got %v\nwant %v", trial, n, c.name, got, want)
			}
		}
	}
}
