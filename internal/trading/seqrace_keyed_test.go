package trading

import (
	"fmt"
	"sync"
	"testing"

	"integrade/internal/constraint"
	"integrade/internal/orb"
)

// TestSeqOrderSameShardKeyed is the keyed-upsert variant of
// TestSeqOrderSameShard: concurrent ExportKeyed calls for a ref must leave
// exactly one live offer for it, and that offer must be the ref's newest
// export, because an upsert replaces the ref's oldest offer. Run it under
// -race (make race).
func TestSeqOrderSameShardKeyed(t *testing.T) {
	ref := orb.ObjectRef{Endpoint: orb.Endpoint{Net: "loop", Addr: "x"}, Key: "k"}
	other := orb.ObjectRef{Endpoint: orb.Endpoint{Net: "loop", Addr: "y"}, Key: "k"}
	for round := 0; round < 200; round++ {
		s := NewService(nil)
		var (
			wg     sync.WaitGroup
			mu     sync.Mutex
			newest = map[orb.ObjectRef]string{}
		)
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				props := constraint.Properties{}
				// Vary the property-copy time per goroutine so exports reach
				// the shard mutex in a different order than they started.
				for p := 0; p < g*8; p++ {
					props[fmt.Sprintf("p%d", p)] = constraint.Number(float64(p))
				}
				for i := 0; i < 30; i++ {
					r := ref
					if i%5 == 4 {
						r = other
					}
					id, err := s.ExportKeyed(Offer{ServiceType: "T", Ref: r, Properties: props})
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					if offerSeq(id) > offerSeq(newest[r]) {
						newest[r] = id
					}
					mu.Unlock()
				}
			}(g)
		}
		wg.Wait()

		all := s.All("T")
		if len(all) != 2 {
			t.Fatalf("round %d: %d live offers, want one per ref", round, len(all))
		}
		for _, o := range all {
			if o.ID != newest[o.Ref] {
				t.Fatalf("round %d: %v kept %s, want its newest export %s", round, o.Ref, o.ID, newest[o.Ref])
			}
		}
		ts := s.typeIndex("T")
		checkShardOrder(t, round, &ts.shards[refShard(ref)])
		checkShardOrder(t, round, &ts.shards[refShard(other)])
		s.mu.Lock()
		n := len(s.ids)
		s.mu.Unlock()
		if n != 2 {
			t.Fatalf("round %d: registry holds %d offers, want 2", round, n)
		}
	}
}

// checkShardOrder asserts a shard's snapshot and reverse index are in
// ascending seq order.
func checkShardOrder(t *testing.T, round int, sh *shard) {
	t.Helper()
	offers := sh.snap.Load().offers
	for i := 1; i < len(offers); i++ {
		if offers[i-1].seq >= offers[i].seq {
			t.Fatalf("round %d: snapshot out of order: seq %d then %d", round, offers[i-1].seq, offers[i].seq)
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for ref, list := range sh.byRef {
		for i := 1; i < len(list); i++ {
			if list[i-1].seq >= list[i].seq {
				t.Fatalf("round %d: byRef[%v] out of order: seq %d then %d", round, ref, list[i-1].seq, list[i].seq)
			}
		}
	}
}
