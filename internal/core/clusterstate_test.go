package core

import (
	"testing"

	"nowover/internal/ids"
)

// The clusterState.remove paths surfaced while writing the invariant
// layer: removing the last member must keep the backing array for arena
// recycling, a swap-moved node must stay removable, a double/absent
// removal must be an explicit error, and a mismatched byz flag must not
// underflow the Byzantine counter.

func newClusterState(members ...ids.NodeID) *clusterState {
	cs := &clusterState{}
	for _, x := range members {
		cs.add(x, false)
	}
	return cs
}

func TestClusterStateRemoveLast(t *testing.T) {
	cs := newClusterState(1, 2, 3)
	for _, x := range []ids.NodeID{2, 1, 3} {
		if err := cs.remove(x, false); err != nil {
			t.Fatal(err)
		}
	}
	if len(cs.members) != 0 {
		t.Fatalf("state not empty after removing all: %v", cs.members)
	}
	// The emptied record must RETAIN its backing array: retired records
	// return to the arena free list and the retained capacity is what
	// makes the recycled record's next fill allocation-free.
	if cap(cs.members) == 0 {
		t.Fatal("emptied member list released its backing array")
	}
	// The emptied state must remain usable (merge refill / recycle path).
	cs.add(9, true)
	if cs.indexOf(9) != 0 || cs.byz != 1 || len(cs.members) != 1 {
		t.Fatalf("re-add after empty broken: %+v", cs)
	}
}

func TestClusterStateRemoveMoved(t *testing.T) {
	cs := newClusterState(10, 20, 30)
	// Removing 10 swap-moves 30 into slot 0; 30 must still be removable
	// and its index must be correct.
	if err := cs.remove(10, false); err != nil {
		t.Fatal(err)
	}
	if cs.indexOf(30) != 0 || cs.members[0] != 30 {
		t.Fatalf("swap-move bookkeeping broken: %v", cs.members)
	}
	if err := cs.remove(30, false); err != nil {
		t.Fatalf("moved node not removable: %v", err)
	}
	if len(cs.members) != 1 || cs.members[0] != 20 {
		t.Fatalf("unexpected survivors: %v", cs.members)
	}
}

func TestClusterStateRemoveAbsent(t *testing.T) {
	cs := newClusterState(1, 2)
	if err := cs.remove(7, false); err == nil {
		t.Fatal("removing an absent node succeeded")
	}
	if err := cs.remove(1, false); err != nil {
		t.Fatal(err)
	}
	if err := cs.remove(1, false); err == nil {
		t.Fatal("double removal succeeded")
	}
	if len(cs.members) != 1 {
		t.Fatalf("failed removals mutated state: %v", cs.members)
	}
}

func TestClusterStateByzUnderflowGuard(t *testing.T) {
	cs := newClusterState(1, 2)
	if err := cs.remove(1, true); err == nil {
		t.Fatal("byz-flagged removal from a byz-free cluster succeeded")
	}
	if cs.indexOf(1) < 0 {
		t.Fatal("rejected removal still dropped the node")
	}
	cs.add(3, true)
	if err := cs.remove(3, true); err != nil {
		t.Fatal(err)
	}
	if cs.byz != 0 {
		t.Fatalf("byz count %d after symmetric add/remove", cs.byz)
	}
}

func TestClusterStateCloneIndependent(t *testing.T) {
	cs := newClusterState(1, 2, 3)
	cs.add(4, true)
	cl := cs.clone()
	if err := cl.remove(2, false); err != nil {
		t.Fatal(err)
	}
	cl.add(99, true)
	if len(cs.members) != 4 || cs.byz != 1 {
		t.Fatalf("clone mutation leaked into original: %+v", cs)
	}
	if cs.indexOf(99) >= 0 {
		t.Fatal("clone insertion leaked into original member list")
	}
}
