package needletail

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/xrand"
)

// statsLine renders a device's stats and the run's sample count and
// estimates at full precision.
func statsLine(name string, tab *MaterializedTable, res *core.Result) string {
	st := tab.Device().Stats()
	return fmt.Sprintf("%s samples=%d seq=%d misses=%d hits=%d io=%.17g cpu=%.17g est=%.17g\n",
		name, res.TotalSamples, st.SeqBlocks, st.RandBlockMisses, st.RandBlockHits, st.IOSeconds, st.CPUSeconds, res.Estimates)
}

// TestDeviceStatsPinned pins what IFOCUS charges the simulated device on
// a 30 000-row store — one sample per round and the auto-batch schedule,
// with and without replacement — and what one predicate run charges, so
// the draw path behind NEEDLETAIL's groups can change only if every read
// it charges stays where it was.
func TestDeviceStatsPinned(t *testing.T) {
	tab := buildEngineTable(t, 30_000)
	eng, err := NewEngine(tab, "v", 100)
	if err != nil {
		t.Fatal(err)
	}
	run := func(name string, u *dataset.Universe, opts core.Options) string {
		tab.Device().Reset()
		res, err := core.IFocus(u, xrand.New(5), opts)
		if err != nil {
			t.Fatal(err)
		}
		return statsLine(name, tab, res)
	}
	var b strings.Builder
	for _, batch := range []int{1, core.BatchAuto} {
		for _, wr := range []bool{false, true} {
			opts := core.DefaultOptions()
			opts.BatchSize = batch
			opts.WithReplacement = wr
			b.WriteString(run(fmt.Sprintf("batch=%d wr=%v", batch, wr), eng.Universe(), opts))
		}
	}
	u, err := eng.UniverseWhere(tab.PredicateBitmap(0, func(v float64) bool { return v > 40 }))
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(run("where", u, core.DefaultOptions()))
	const want = `batch=1 wr=false samples=560 seq=0 misses=88 hits=472 io=0.17600000000000013 cpu=0.00028000000000000355 est=[19.182692504978132 80.359352118755965 48.730615609087643]
batch=1 wr=true samples=632 seq=0 misses=88 hits=544 io=0.17600000000000013 cpu=0.00031600000000000443 est=[20.252418639970379 78.538278644583542 50.681903124491555]
batch=-1 wr=false samples=1088 seq=0 misses=88 hits=1000 io=0.17600000000000013 cpu=0.0005440000000000039 est=[19.413429020111842 80.118011725883278 49.33686655720583]
batch=-1 wr=true samples=1088 seq=0 misses=88 hits=1000 io=0.17600000000000013 cpu=0.0005440000000000039 est=[20.17654315424906 78.879933416492477 50.582558520667739]
where samples=507 seq=0 misses=88 hits=419 io=0.17600000000000013 cpu=0.00025350000000000291 est=[42.666441733078038 79.834619891512659 52.327703334029543]
`
	if got := b.String(); got != want {
		t.Fatalf("device stats drifted:\n%s\nwant:\n%s", got, want)
	}
}
