package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestGoldenMatrix pins the full Table 3 / Figure 7–10 result matrix to
// committed fixtures, byte for byte. The fixtures were generated before the
// exit path was decomposed into the staged transaction pipeline, so this
// test is the regression fence for the refactor: any drift in charging
// order, interceptor gating or settle accounting shows up as a diff here
// before it shows up in a reviewer's artifact run. Regenerate a fixture
// only for a deliberate model change, never to absorb an accidental one.
func TestGoldenMatrix(t *testing.T) {
	cases := []struct {
		fixture string
		render  func() (string, error)
	}{
		{"table3.golden", func() (string, error) {
			rows, err := Table3()
			if err != nil {
				return "", err
			}
			return FormatTable3(rows), nil
		}},
		{"figure7.golden", func() (string, error) {
			r, err := Figure7()
			if err != nil {
				return "", err
			}
			return FormatAppResults("Figure 7: application performance (2 levels)", r), nil
		}},
		{"figure8.golden", func() (string, error) {
			r, err := Figure8()
			if err != nil {
				return "", err
			}
			return FormatAppResults("Figure 8: application performance breakdown", r), nil
		}},
		{"figure9.golden", func() (string, error) {
			r, err := Figure9()
			if err != nil {
				return "", err
			}
			return FormatAppResults("Figure 9: application performance in L3 VM", r), nil
		}},
		{"figure10.golden", func() (string, error) {
			r, err := Figure10()
			if err != nil {
				return "", err
			}
			return FormatAppResults("Figure 10: application performance, Xen on KVM", r), nil
		}},
		{"stagebreakdown.golden", func() (string, error) {
			rows, err := StageBreakdown()
			if err != nil {
				return "", err
			}
			return FormatStageBreakdown(rows), nil
		}},
		{"storms.golden", func() (string, error) {
			rows, err := DeliveryStorms()
			if err != nil {
				return "", err
			}
			return FormatStorms(rows), nil
		}},
		{"workloadstages.golden", func() (string, error) {
			rows, err := WorkloadStageBreakdown()
			if err != nil {
				return "", err
			}
			return FormatWorkloadStageBreakdown(rows), nil
		}},
		{"breakdown.golden", func() (string, error) {
			rows, err := Breakdown()
			if err != nil {
				return "", err
			}
			return FormatBreakdown(rows), nil
		}},
		{"stats.golden", renderRunForStats},
		{"migration.golden", func() (string, error) {
			rows, err := Migration()
			if err != nil {
				return "", err
			}
			return FormatMigration(rows), nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			t.Parallel()
			got, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", tc.fixture)
			if os.Getenv("NVSIM_UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output drifted from committed fixture %s\n got:\n%s\nwant:\n%s", tc.fixture, got, want)
			}
		})
	}
}

// renderRunForStats pins the machine's Stats report — exits by reason and
// level, cycle attribution and named counters — after a fixed RunFor span of
// every Table 2 mix on the nested paravirtual, DVH-VP and DVH stacks. Unlike
// the figure fixtures, RunFor advances the event engine, so timer
// expirations, direct deliveries and wakes all reach the counters.
func renderRunForStats() (string, error) {
	const span = 20_000_000
	specs := []Spec{
		{Depth: 2, IO: IOParavirt},
		{Depth: 2, IO: IODVH},
		{Depth: 3, IO: IODVH},
		{Depth: 2, IO: IODVHVP},
	}
	var b strings.Builder
	for _, spec := range specs {
		for _, p := range workload.Profiles() {
			st, err := Build(spec)
			if err != nil {
				return "", err
			}
			r := workload.Runner{W: st.World, VM: st.Target, Net: st.Net, Blk: st.Blk, P: p}
			res, err := r.RunFor(span)
			if err != nil {
				return "", fmt.Errorf("%s on L%d %v: %w", p.Name, spec.Depth, spec.IO, err)
			}
			fmt.Fprintf(&b, "== L%d %v %s: %d txns\n", spec.Depth, spec.IO, p.Name, res.Transactions)
			b.WriteString(st.Machine.Stats.String())
		}
	}
	return b.String(), nil
}
