package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func TestRingPlacementIgnoresInsertionOrder(t *testing.T) {
	a, err := newRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRing([]string{"n3", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("sha256:%04d", i)
		if a.owner(key) != b.owner(key) {
			t.Fatalf("key %s: owner %q vs %q across insertion orders", key, a.owner(key), b.owner(key))
		}
		if !reflect.DeepEqual(a.order(key), b.order(key)) {
			t.Fatalf("key %s: failover order differs across insertion orders", key)
		}
	}
}

func TestRingRejectsBadMembers(t *testing.T) {
	if _, err := newRing(nil); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := newRing([]string{"a", ""}); err == nil {
		t.Error("empty member name accepted")
	}
	if _, err := newRing([]string{"a", "b", "a"}); err == nil {
		t.Error("duplicate member accepted")
	}
}

func TestRingOrderCoversAllMembersOwnerFirst(t *testing.T) {
	r, err := newRing([]string{"n1", "n2", "n3", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("job-%d", i)
		order := r.order(key)
		if len(order) != 4 {
			t.Fatalf("key %s: order has %d members, want 4", key, len(order))
		}
		if order[0] != r.owner(key) {
			t.Fatalf("key %s: order starts with %q, owner is %q", key, order[0], r.owner(key))
		}
		seen := make(map[string]bool)
		for _, m := range order {
			if seen[m] {
				t.Fatalf("key %s: member %q repeats in order %v", key, m, order)
			}
			seen[m] = true
		}
	}
}

// Removing a member may move only that member's keys: everyone else's
// placement is untouched. This is the property that makes node death
// cheap — survivors keep their caches warm.
func TestRingOnlyDeadMembersKeysMove(t *testing.T) {
	full, err := newRing([]string{"n1", "n2", "n3", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	without, err := newRing([]string{"n1", "n2", "n4"})
	if err != nil {
		t.Fatal(err)
	}
	moved, kept := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("sha256:%05d", i)
		before := full.owner(key)
		after := without.owner(key)
		if before != "n3" {
			if after != before {
				t.Fatalf("key %s moved %q -> %q though its owner survived", key, before, after)
			}
			kept++
			continue
		}
		// n3's keys must land on its failover successor in the full ring.
		order := full.order(key)
		if after != order[1] {
			t.Fatalf("key %s: moved to %q, want clockwise successor %q", key, after, order[1])
		}
		moved++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

func TestRingBalance(t *testing.T) {
	r, err := newRing([]string{"n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("sha256:%05d", i))]++
	}
	for m, n := range counts {
		// Fair share is 1000; 128 vnodes keeps every member within ~2x.
		if n < keys/6 || n > keys/2+keys/10 {
			t.Errorf("member %s owns %d of %d keys — badly unbalanced", m, n, keys)
		}
	}
}
