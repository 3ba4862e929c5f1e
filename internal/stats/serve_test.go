package stats

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeCountersAccumulate(t *testing.T) {
	var c ServeCounters
	c.NoteEnqueued(10)
	c.NoteRejected(2)
	c.NoteBatch(3)
	c.NoteBatch(5)
	c.SetQueueDepth(4)
	pub := time.Unix(100, 0)
	c.NotePublish(7, pub)

	s := c.Snapshot(pub.Add(2 * time.Second))
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
	if s.QueueDepth != 4 {
		t.Fatalf("queue depth = %d, want 4", s.QueueDepth)
	}
	if s.Epoch != 7 || c.Epoch() != 7 || s.Epochs != 1 {
		t.Fatalf("epoch = %d/%d (count %d), want 7", s.Epoch, c.Epoch(), s.Epochs)
	}
	if s.EpochAge != 2*time.Second {
		t.Fatalf("epoch age = %v, want 2s", s.EpochAge)
	}
}

func TestServeCountersZeroValue(t *testing.T) {
	var c ServeCounters
	s := c.Snapshot(time.Now())
	if s.EpochAge != 0 {
		t.Fatalf("epoch age on fresh counters = %v, want 0", s.EpochAge)
	}
	if s.Batches != 0 || s.BatchEdgesSum != 0 {
		t.Fatalf("fresh counters = %+v, want zero batches", s)
	}
}

func TestServeCountersConcurrent(t *testing.T) {
	var c ServeCounters
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.NoteEnqueued(1)
				c.NoteBatch(w + 1)
				c.Snapshot(time.Now())
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot(time.Now())
	if s.Enqueued != 8000 || s.Batches != 8000 {
		t.Fatalf("enqueued/batches = %d/%d, want 8000/8000", s.Enqueued, s.Batches)
	}
	if s.BatchEdgesMax != 8 {
		t.Fatalf("batch max = %d, want 8", s.BatchEdgesMax)
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
