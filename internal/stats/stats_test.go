package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIOCounterBasics(t *testing.T) {
	c := NewIOCounter(0)
	if c.BlockSize() != DefaultBlockSize {
		t.Fatalf("default block size = %d, want %d", c.BlockSize(), DefaultBlockSize)
	}
	c.AddReadBlocks(3)
	c.AddWriteBlocks(2)
	c.AddReadBytes(100)
	c.AddWriteBytes(50)
	s := c.Snapshot()
	if s.Reads != 3 || s.Writes != 2 || s.ReadBytes != 100 || s.WriteBytes != 50 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Total() != 5 {
		t.Fatalf("total = %d, want 5", s.Total())
	}
	c.AddReadBlocks(1)
	d := c.Snapshot().Sub(s)
	if d.Reads != 1 || d.Writes != 0 {
		t.Fatalf("delta = %+v", d)
	}
	c.Reset()
	if c.Snapshot().Total() != 0 {
		t.Fatal("reset did not zero counters")
	}
}

func TestMemModelPeak(t *testing.T) {
	m := NewMemModel()
	m.Alloc("a", 100)
	m.Alloc("b", 200)
	if m.Current() != 300 || m.Peak() != 300 {
		t.Fatalf("cur=%d peak=%d", m.Current(), m.Peak())
	}
	m.Free("a")
	if m.Current() != 200 || m.Peak() != 300 {
		t.Fatalf("after free: cur=%d peak=%d", m.Current(), m.Peak())
	}
	// Replacing a label applies the delta, not a double count.
	m.Alloc("b", 50)
	if m.Current() != 50 {
		t.Fatalf("after shrink: cur=%d", m.Current())
	}
	m.Free("missing") // must be a no-op
	if m.Current() != 50 {
		t.Fatalf("free of unknown label changed total: %d", m.Current())
	}
	if got := m.Labels(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("labels = %v", got)
	}
}

func TestMemModelPeakNeverBelowCurrent(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := NewMemModel()
		for i, s := range sizes {
			if i%3 == 2 {
				m.Free("x")
			} else {
				m.Alloc("x", int64(s))
			}
			if m.Peak() < m.Current() {
				return false
			}
		}
		return true
	}
	// A fixed source: testutil, which owns -seed, imports this package.
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(110))}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:                 "0 B",
		512:               "512 B",
		2048:              "2.0 KiB",
		4 * 1024 * 1024:   "4.0 MiB",
		4510 << 20:        "4.4 GiB",
		int64(5) << 40:    "5.0 TiB",
		3<<30 + (1 << 29): "3.5 GiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRunStatsSummary(t *testing.T) {
	r := RunStats{Algorithm: "SemiCore*", Iterations: 3, NodeComputations: 11,
		UpdatedPerIter: []int64{4, 1, 1}}
	if r.TotalUpdates() != 6 {
		t.Fatalf("total updates = %d, want 6", r.TotalUpdates())
	}
	if s := r.String(); !strings.Contains(s, "SemiCore*") || !strings.Contains(s, "comps=11") {
		t.Fatalf("summary %q missing fields", s)
	}
}
