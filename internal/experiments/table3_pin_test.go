package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestTable3MaterializedPinned pins every materialized Table 3 cell —
// simulated seconds, sample count and correctness — at 150 000 rows, so a
// change to how NEEDLETAIL groups draw that moves one sample, one device
// charge or one estimate shows here.
func TestTable3MaterializedPinned(t *testing.T) {
	s := tinyScale()
	s.Sizes = []int64{150_000}
	res, err := Table3(s)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, c := range res.Cells {
		fmt.Fprintf(&b, "%s/%s seconds=%.17g samples=%d correct=%v\n", c.Attr, c.Algo, c.Seconds, c.Samples, c.Correct)
	}
	const want = `Elapsed Time/roundrobin seconds=0.085000000000064663 samples=150000 correct=true
Elapsed Time/ifocus seconds=0.083582000000063245 samples=147164 correct=true
Elapsed Time/ifocusr seconds=0.083582000000063245 samples=147164 correct=true
Arrival Delay/roundrobin seconds=0.084996500000064659 samples=149993 correct=true
Arrival Delay/ifocus seconds=0.083582000000063245 samples=147164 correct=true
Arrival Delay/ifocusr seconds=0.083582000000063245 samples=147164 correct=true
Departure Delay/roundrobin seconds=0.085000000000064663 samples=150000 correct=true
Departure Delay/ifocus seconds=0.083582000000063245 samples=147164 correct=true
Departure Delay/ifocusr seconds=0.083582000000063245 samples=147164 correct=true
`
	if got := b.String(); got != want {
		t.Fatalf("Table 3 cells drifted:\n%s\nwant:\n%s", got, want)
	}
}
