package expr

import (
	"io"
	"os"
	"strings"
	"testing"
)

// workDir is shared by every test and benchmark of the package, so each
// dataset and sample is written once per process.
var workDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kcore-expr-test")
	if err != nil {
		panic(err)
	}
	workDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// quick runs one experiment in Quick mode, its paper-shape checks
// included, and returns its output.
func quick(t *testing.T, name string) string {
	t.Helper()
	var sb strings.Builder
	if err := Run(name, &Config{Out: &sb, WorkDir: workDir, Quick: true}); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, sb.String())
	}
	return sb.String()
}

// One test per exhibit; each fails when the exhibit's checks do.
func TestTable1Quick(t *testing.T)     { quick(t, "table1") }
func TestFig3Quick(t *testing.T)       { quick(t, "fig3") }
func TestFig9SmallQuick(t *testing.T)  { quick(t, "fig9small") }
func TestFig9BigQuick(t *testing.T)    { quick(t, "fig9big") }
func TestFig10SmallQuick(t *testing.T) { quick(t, "fig10small") }
func TestFig10BigQuick(t *testing.T)   { quick(t, "fig10big") }
func TestFig11Quick(t *testing.T)      { quick(t, "fig11") }
func TestFig12Quick(t *testing.T)      { quick(t, "fig12") }
func TestAblationQuick(t *testing.T)   { quick(t, "ablation") }

func TestTracesQuick(t *testing.T) {
	if out := quick(t, "traces"); !strings.Contains(out, "SemiCore: 36, SemiCore+: 23, SemiCore*: 11") {
		t.Fatalf("traces output lost the paper's computation counts:\n%s", out)
	}
}

// BenchmarkExperiments runs every exhibit once per iteration in Quick
// mode, checks included; -bench Experiments/fig9big -cpuprofile profiles
// one exhibit.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Experiments {
		b.Run(e.Name, func(b *testing.B) {
			cfg := &Config{Out: io.Discard, WorkDir: workDir, Quick: true}
			for range b.N {
				if err := e.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", &Config{Quick: true}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSampleIterations(t *testing.T) {
	for _, n := range []int{0, 1, 5, 50, 2000} {
		idx := sampleIterations(n)
		if n == 0 {
			if len(idx) != 0 {
				t.Fatalf("n=0 gave %v", idx)
			}
			continue
		}
		if idx[0] != 0 || idx[len(idx)-1] != n-1 {
			t.Fatalf("n=%d: endpoints wrong: %v", n, idx)
		}
		for i := 1; i < len(idx); i++ {
			if idx[i] <= idx[i-1] {
				t.Fatalf("n=%d: not increasing: %v", n, idx)
			}
		}
	}
}
