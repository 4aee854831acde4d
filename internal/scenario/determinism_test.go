package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/snap"
)

func loadSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario specs found")
	}
	specs := make(map[string]Spec, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		specs[filepath.Base(p)] = spec
	}
	return specs
}

// TestScenariosAreDeterministic runs every shipped drill and requires
// that it passes, that its final state hash equals snap.Replay of the
// session's own journal (the verdict is the journaled verdict), and
// that a second run is bit-identical — assertion outcomes, details and
// the full timeline log. The colocation drill also runs with its
// antagonists shifted off the arbiter's tick grid by 1us and 10us: a
// workload start must be capped at once, not at the next tick.
func TestScenariosAreDeterministic(t *testing.T) {
	specs := loadSpecs(t)
	coloc := specs["colocation-guarantee.json"]
	for _, shiftUs := range []int64{1, 10} {
		s := coloc
		s.Workloads = append([]WorkloadSpec(nil), coloc.Workloads...)
		for i := range s.Workloads {
			if s.Workloads[i].Kind != "kv" {
				s.Workloads[i].AtUs += shiftUs
			}
		}
		specs[fmt.Sprintf("colocation-guarantee.json+%dus", shiftUs)] = s
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			first, sess, err := run(spec)
			if sess != nil {
				defer sess.Manager().Stop()
			}
			if err != nil {
				t.Fatal(err)
			}
			if !first.Passed {
				t.Fatalf("drill failed: %+v", first.Checks)
			}
			replayed, err := snap.Replay(sess.Config(), sess.Journal())
			if err != nil {
				t.Fatal(err)
			}
			defer replayed.Manager().Stop()
			if got, want := snap.StateHash(replayed.Manager()), snap.StateHash(sess.Manager()); got != want {
				t.Fatalf("replayed journal hash %s, live hash %s", got, want)
			}
			second, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two runs of %s differ:\n first: %+v\nsecond: %+v", name, first, second)
			}
		})
	}
}

// TestScenarioJournalsReplayDeterministically converts every shipped
// drill to a snap journal and runs the divergence checker over it —
// the determinism-regression harness applied to real inputs.
func TestScenarioJournalsReplayDeterministically(t *testing.T) {
	for name, spec := range loadSpecs(t) {
		t.Run(name, func(t *testing.T) {
			cfg, j := ToJournal(spec)
			if err := j.Validate(); err != nil {
				t.Fatalf("converted journal invalid: %v", err)
			}
			div, err := snap.CheckDeterminism(cfg, j)
			if err != nil {
				t.Fatal(err)
			}
			if div != nil {
				t.Fatalf("scenario journal diverges: %v", div)
			}
		})
	}
}
