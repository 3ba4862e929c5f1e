package testutil

import (
	"testing"

	"kcore/internal/gen"
)

// TestMutationStreamDeterminism pins the replayability contract: the
// same seed must yield the identical stream.
func TestMutationStreamDeterminism(t *testing.T) {
	edges := gen.Social(64, 3, 4, 5, 3)
	a := NewMutationStream(64, 42, edges)
	b := NewMutationStream(64, 42, edges)
	for i := 0; i < 500; i++ {
		if ma, mb := a.Next(), b.Next(); ma != mb {
			t.Fatalf("op %d: streams diverge: %+v vs %+v", i, ma, mb)
		}
	}
	if la, lb := len(a.Live()), len(b.Live()); la != lb {
		t.Fatalf("mirrors diverge: %d vs %d live edges", la, lb)
	}
}
