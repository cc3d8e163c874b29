package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/viz"
	"repro/internal/xrand"
)

// Table1Row is one displayed round of the execution-trace demonstration.
type Table1Row struct {
	Round     int
	Intervals [][2]float64
	Active    []bool
	Samples   int64
}

// Table1Result is the reproduction of the paper's Table 1: an IFOCUS
// execution trace on four groups, showing confidence intervals shrinking
// and groups deactivating one by one, plus the cost decomposition the
// paper's Example 3.1 derives from it.
type Table1Result struct {
	Groups []string
	Rows   []Table1Row
	// SettleRounds are the rounds at which each group deactivated.
	SettleRounds []int
	// TotalSamples is the cost C of the run.
	TotalSamples int64
}

// Table1 runs IFOCUS on a four-group instance shaped like the paper's
// example (means near 75, 40, 25, 55 on [0,100]) and captures the trace.
// Rows are recorded whenever the active set changes, plus the first round.
func Table1(seed uint64) (*Table1Result, error) {
	rng := xrand.New(seed)
	mk := func(name string, mean float64) dataset.Group {
		return dataset.NewDistGroup(name, xrand.TruncNormal{Mu: mean, Sigma: 12, Lo: 0, Hi: 100}, 1_000_000)
	}
	u := dataset.NewUniverse(100,
		mk("Group 1", 75), mk("Group 2", 40), mk("Group 3", 25), mk("Group 4", 55))

	res := &Table1Result{Groups: []string{"Group 1", "Group 2", "Group 3", "Group 4"}}
	prevActive := -1
	opts := core.DefaultOptions()
	opts.OnRound = func(m int, eps float64, _ []float64, active []bool, est []float64, total int64) {
		n := 0
		for _, a := range active {
			if a {
				n++
			}
		}
		if n != prevActive || m == 1 {
			row := Table1Row{Round: m, Samples: total}
			for i := range est {
				row.Intervals = append(row.Intervals, [2]float64{est[i] - eps, est[i] + eps})
			}
			row.Active = append([]bool(nil), active...)
			res.Rows = append(res.Rows, row)
			prevActive = n
		}
	}
	run, err := core.IFocus(u, rng, opts)
	if err != nil {
		return nil, err
	}
	res.SettleRounds = run.SettledRound
	res.TotalSamples = run.TotalSamples
	return res, nil
}

// Print renders the trace in the paper's Table 1 layout.
func (r *Table1Result) Print(w io.Writer) {
	headers := append([]string{"Round"}, r.Groups...)
	var rows [][]string
	for _, row := range r.Rows {
		cells := []string{itoa(row.Round)}
		for i, iv := range row.Intervals {
			state := "I"
			if row.Active[i] {
				state = "A"
			}
			cells = append(cells, fprintfS("[%.0f, %.0f] %s", iv[0], iv[1], state))
		}
		rows = append(rows, cells)
	}
	fprintf(w, "Table 1: IFOCUS execution trace (cost C = %d samples)\n", r.TotalSamples)
	fprintf(w, "%s", viz.Table(headers, rows))
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func fprintfS(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
