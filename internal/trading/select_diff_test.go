package trading

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// refMerge is the k-way merge the trader's read path used before Select
// became scan-then-sort: it walks a type's live offers in ascending seq
// order by merging the per-shard snapshots, each of which is seq-sorted.
func refMerge(s *Service, serviceType string, visit func(*Offer)) {
	ts := s.typeIndex(serviceType)
	if ts == nil {
		return
	}
	now := s.now()
	var heads [][]*Offer
	for i := range ts.shards {
		if offers := ts.shards[i].snap.Load().offers; len(offers) > 0 {
			heads = append(heads, offers)
		}
	}
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			if heads[i][0].seq < heads[best][0].seq {
				best = i
			}
		}
		o := heads[best][0]
		if heads[best] = heads[best][1:]; len(heads[best]) == 0 {
			heads = append(heads[:best], heads[best+1:]...)
		}
		if !o.expired(now) {
			visit(o)
		}
	}
}

// refSelectShared is SelectShared over refMerge followed by the stable
// preference sort and limit it always applied.
func refSelectShared(s *Service, q Query) []Offer {
	var cons, pref *constraint.Expr
	if q.Constraint != "" {
		cons, _ = constraint.Compile(q.Constraint)
	}
	if q.Preference != "" {
		pref, _ = constraint.Compile(q.Preference)
	}
	var matched []*Offer
	var scores []float64
	refMerge(s, q.ServiceType, func(o *Offer) {
		if cons != nil {
			if ok, err := cons.Eval(o.Properties); err != nil || !ok {
				return
			}
		}
		score := 0.0
		if pref != nil {
			if v, err := pref.EvalNumber(o.Properties); err == nil {
				score = v
			}
		}
		matched = append(matched, o)
		scores = append(scores, score)
	})
	if pref != nil {
		idx := make([]int, len(matched))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(i, j int) bool { return scores[idx[i]] > scores[idx[j]] })
		reordered := make([]*Offer, len(matched))
		for i, j := range idx {
			reordered[i] = matched[j]
		}
		matched = reordered
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	out := make([]Offer, 0, len(matched))
	for _, o := range matched {
		out = append(out, *o)
	}
	return out
}

// refAll is All over refMerge.
func refAll(s *Service, serviceType string) []Offer {
	types := []string{serviceType}
	if serviceType == "" {
		types = nil
		for t := range *s.types.Load() {
			types = append(types, t)
		}
		sort.Strings(types)
	}
	var out []Offer
	for _, t := range types {
		refMerge(s, t, func(o *Offer) { out = append(out, cloneOffer(o)) })
	}
	return out
}

// randomTrader drives a trader through a seeded mix of exports, keyed
// upserts, batches, withdrawals and expiries. Offer properties collide
// often and are sometimes missing or mistyped.
func randomTrader(rng *rand.Rand) *Service {
	clock := time.Unix(1_000_000, 0)
	s := NewService(func() time.Time { return clock })
	types := []string{"NodeStatus", "Storage"}
	refs := make([]orb.ObjectRef, 40+rng.IntN(120))
	for i := range refs {
		refs[i] = orb.ObjectRef{Endpoint: orb.Endpoint{Net: orb.NetLoopback, Addr: fmt.Sprintf("n%d", i)}, Key: "lrm"}
	}
	randOffer := func() Offer {
		props := constraint.Properties{"os": constraint.String([]string{"linux", "bsd"}[rng.IntN(2)])}
		for _, key := range []string{"mips", "ram"} {
			switch rng.IntN(8) {
			case 0:
			case 1:
				props[key] = constraint.String("junk")
			default:
				props[key] = constraint.Number(float64(rng.IntN(5) * 100))
			}
		}
		st := types[0]
		if rng.IntN(8) == 0 {
			st = types[1]
		}
		o := Offer{ServiceType: st, Ref: refs[rng.IntN(len(refs))], Properties: props}
		if rng.IntN(4) == 0 {
			o.Expires = clock.Add(time.Duration(1+rng.IntN(20)) * time.Second)
		}
		return o
	}
	var ids []string
	for op := 0; op < 300+rng.IntN(300); op++ {
		switch r := rng.IntN(20); {
		case r < 7:
			id, _ := s.Export(randOffer())
			ids = append(ids, id)
		case r < 14:
			id, _ := s.ExportKeyed(randOffer())
			ids = append(ids, id)
		case r < 15:
			batch := make([]Offer, rng.IntN(30))
			for i := range batch {
				batch[i] = randOffer()
			}
			got, _ := s.ExportBatch(batch)
			ids = append(ids, got...)
		case r < 17 && len(ids) > 0:
			_ = s.Withdraw(ids[rng.IntN(len(ids))])
		case r < 18:
			s.WithdrawRef(types[rng.IntN(2)], refs[rng.IntN(len(refs))])
		default:
			clock = clock.Add(time.Second)
		}
	}
	return s
}

func TestSelectMatchesMergeReference(t *testing.T) {
	constraints := []string{"", "mips >= 200", "os == 'linux'", "mips >= 100 and ram < 300", "absent > 1"}
	preferences := []string{"", "mips", "ram", "mips - ram"}
	limits := []int{0, 1, 7, 1000}
	rng := rand.New(rand.NewPCG(12, 0))
	for trial := 0; trial < 30; trial++ {
		s := randomTrader(rng)
		for _, st := range []string{"NodeStatus", "Storage", "Unknown"} {
			for _, c := range constraints {
				for _, p := range preferences {
					for _, l := range limits {
						q := Query{ServiceType: st, Constraint: c, Preference: p, Limit: l}
						want := refSelectShared(s, q)
						shared, err := s.SelectShared(q)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(shared, want) {
							t.Fatalf("trial %d: SelectShared(%+v)\n got %v\nwant %v", trial, q, ids(shared), ids(want))
						}
						copied, err := s.Select(q)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(copied, want) {
							t.Fatalf("trial %d: Select(%+v)\n got %v\nwant %v", trial, q, ids(copied), ids(want))
						}
					}
				}
			}
			if got, want := s.All(st), refAll(s, st); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: All(%q)\n got %v\nwant %v", trial, st, ids(got), ids(want))
			}
		}
		if got, want := s.All(""), refAll(s, ""); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: All(\"\")\n got %v\nwant %v", trial, ids(got), ids(want))
		}
	}
}

func ids(offers []Offer) []string {
	out := make([]string, len(offers))
	for i, o := range offers {
		out[i] = o.ID
	}
	return out
}
