package stats

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestServeCountersAccumulate(t *testing.T) {
	var c Counters[ServeSnapshot]
	c.Update(func(s *ServeSnapshot) { s.Enqueued += 10 })
	c.Update(func(s *ServeSnapshot) { s.Rejected += 2 })
	c.Update(func(s *ServeSnapshot) { s.NoteBatch(3) })
	c.Update(func(s *ServeSnapshot) { s.NoteBatch(5) })

	s := c.Snapshot()
	if s.Enqueued != 10 || s.Rejected != 2 {
		t.Fatalf("enqueued/rejected = %d/%d, want 10/2", s.Enqueued, s.Rejected)
	}
	if s.Applied != 8 || s.Batches != 2 {
		t.Fatalf("applied/batches = %d/%d, want 8/2", s.Applied, s.Batches)
	}
	if s.BatchEdgesMax != 5 || s.BatchEdgesSum != 8 {
		t.Fatalf("batch max/sum = %d/%d, want 5/8", s.BatchEdgesMax, s.BatchEdgesSum)
	}
	if got := float64(s.BatchEdgesSum) / float64(s.Batches); got != 4 {
		t.Fatalf("mean batch = %v, want 4", got)
	}
	if s.QueueDepth != 0 || s.Epoch != 0 || s.EpochAge != 0 {
		t.Fatalf("gauges = %d/%d/%v, want zero: the counters never store them", s.QueueDepth, s.Epoch, s.EpochAge)
	}
}

func TestServeCountersZeroValue(t *testing.T) {
	var c Counters[ServeSnapshot]
	if s := c.Snapshot(); s != (ServeSnapshot{}) {
		t.Fatalf("fresh counters = %+v, want zero", s)
	}
}

func TestServeCountersConcurrent(t *testing.T) {
	var c Counters[ServeSnapshot]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Update(func(s *ServeSnapshot) { s.Enqueued++ })
				c.Update(func(s *ServeSnapshot) { s.NoteBatch(w + 1) })
				if s := c.Snapshot(); s.Applied > s.Enqueued*8 {
					t.Errorf("snapshot applied %d past 8 x enqueued %d", s.Applied, s.Enqueued)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Enqueued != 8000 || s.Batches != 8000 {
		t.Fatalf("enqueued/batches = %d/%d, want 8000/8000", s.Enqueued, s.Batches)
	}
	if s.BatchEdgesMax != 8 || s.BatchEdgesSum != 36000 {
		t.Fatalf("batch max/sum = %d/%d, want 8/36000", s.BatchEdgesMax, s.BatchEdgesSum)
	}
}

// TestServeSnapshotKeysAreDocumented holds ARCHITECTURE's observability
// map to the counters /stats exports: the unprefixed names in its
// "Counter (in `/stats`)" table must be exactly ServeSnapshot's JSON
// keys, its disk.* names exactly DiskSnapshot's (the block every graph
// has), its durability.* names WalSnapshot's and its replica.* names
// ReplicaSnapshot's. `make doc` runs it.
func TestServeSnapshotKeysAreDocumented(t *testing.T) {
	var exported []string
	for prefix, block := range map[string]any{"": ServeSnapshot{}, "disk.": DiskSnapshot{},
		"durability.": WalSnapshot{}, "replica.": ReplicaSnapshot{}} {
		st := reflect.TypeOf(block)
		for i := range st.NumField() {
			exported = append(exported, prefix+strings.Split(st.Field(i).Tag.Get("json"), ",")[0])
		}
	}

	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, found := strings.Cut(string(doc), "| Counter (in `/stats`) |")
	if !found {
		t.Fatal("docs/ARCHITECTURE.md has no \"Counter (in `/stats`)\" table")
	}
	// The table's other unprefixed rows are /stats keys beside the serve
	// block: Report's backend label and its io block.
	notServe := []string{"backend", "io"}
	name := regexp.MustCompile("`((?:disk\\.|durability\\.|replica\\.)?[a-z0-9_]+)`")
	var documented []string
	for _, row := range strings.Split(table, "\n")[2:] {
		if !strings.HasPrefix(row, "|") {
			break
		}
		first := strings.Split(row, "|")[1]
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			if !slices.Contains(notServe, m[1]) {
				documented = append(documented, m[1])
			}
		}
	}

	slices.Sort(exported)
	slices.Sort(documented)
	if !slices.Equal(exported, documented) {
		t.Fatalf("/stats exports %v,\nthe observability map documents %v", exported, documented)
	}
}
