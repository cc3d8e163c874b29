package dataset

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// hammerUniverse builds a small slice universe for the concurrency tests.
func hammerUniverse(k, n int) *Universe {
	r := xrand.New(0x7a11)
	groups := make([]Group, k)
	for g := range groups {
		values := make([]float64, n)
		for i := range values {
			values[i] = float64(g) + r.Float64()
		}
		groups[g] = NewSliceGroup(fmt.Sprintf("h%d", g), values)
	}
	return NewUniverse(float64(k)+1, groups...)
}

// TestSamplerConcurrentGroupDraws is the race regression for the
// sampler's accounting — group-owned counts, exhaustion flags and staged
// draws, one atomic total: one sampler over one universe is hammered by a
// goroutine per group — single-draw phases, block phases and the Draw and
// DrawBatch wrappers, each phase a DrawRound call of its own — while
// whole-universe phases fan out across the sampler's workers in between,
// and the counters must reconcile exactly. Run with -race this pins the
// concurrency contract of the round driver: distinct groups of one sampler
// may be drawn concurrently.
func TestSamplerConcurrentGroupDraws(t *testing.T) {
	const (
		k       = 16
		rows    = 2000
		rounds  = 50
		perStep = 7
		wide    = 3 // whole-universe phases of 128 draws per group
	)
	for _, without := range []bool{false, true} {
		t.Run(fmt.Sprintf("without=%v", without), func(t *testing.T) {
			u := hammerUniverse(k, rows)
			s := NewRoundSampler(u, 0xfeedbeef, without, 4, nil)
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					buf := make([]float64, perStep)
					plan := []Take{{I: i}}
					for r := 0; r < rounds; r++ {
						plan[0].N = 1
						s.DrawRound(plan)
						plan[0].N = perStep
						s.DrawRound(plan)
						s.Draw(i)
						s.DrawBatch(i, buf)
					}
				}(i)
			}
			wg.Wait()
			plan := make([]Take, k)
			for r := 0; r < wide; r++ {
				for i := range plan {
					plan[i] = Take{I: i, N: 128}
				}
				s.DrawRound(plan)
			}
			want := int64(rounds*(2+2*perStep) + wide*128)
			var total int64
			for i := 0; i < k; i++ {
				if got := s.Count(i); got != want {
					t.Fatalf("group %d count %d, want %d", i, got, want)
				}
				total += want
			}
			if got := s.Total(); got != total {
				t.Fatalf("total %d, want %d", got, total)
			}
		})
	}
}

// TestStreamSamplerOrderInvariance pins the per-group stream discipline:
// the values a group yields depend only on how many samples it has taken,
// not on the order groups are visited — the property that makes parallel
// rounds bit-identical to sequential ones.
func TestStreamSamplerOrderInvariance(t *testing.T) {
	const k, n, draws = 6, 500, 40
	forward := make([][]float64, k)
	u := hammerUniverse(k, n)
	s := NewStreamSampler(u, 0xabc, true)
	for i := 0; i < k; i++ {
		forward[i] = make([]float64, draws)
		s.DrawBatch(i, forward[i])
	}
	// Reverse visiting order, interleaved draw granularity.
	u2 := hammerUniverse(k, n)
	s2 := NewStreamSampler(u2, 0xabc, true)
	got := make([][]float64, k)
	for i := k - 1; i >= 0; i-- {
		got[i] = make([]float64, draws)
		for d := 0; d < draws; d++ {
			got[i][d] = s2.Draw(i)
		}
	}
	for i := 0; i < k; i++ {
		for d := 0; d < draws; d++ {
			if forward[i][d] != got[i][d] {
				t.Fatalf("group %d draw %d differs across visit orders: %v vs %v", i, d, got[i][d], forward[i][d])
			}
		}
	}
}

// tableFingerprint renders every structural property of a table, its
// column names and extra columns included.
func tableFingerprint(tb *Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d rows=%d min=%v max=%v names=%q offsets=%v value=%q col=%v",
		tb.K(), tb.NumRows(), tb.MinValue(), tb.MaxValue(), tb.Names(), tb.offsets, tb.ValueColumnName(), tb.column(0))
	for e, name := range tb.ExtraColumnNames() {
		fmt.Fprintf(&b, " extra %q=%v", name, tb.column(1+e))
	}
	return b.String()
}

// shardRows builds an ingestion workload whose groups interleave heavily,
// so shard boundaries cut through every group.
func shardRows(n int) []Row {
	r := rand.New(rand.NewSource(17))
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Group: fmt.Sprintf("g%02d", r.Intn(23)), Value: float64(i%97) + r.Float64()}
	}
	return rows
}

// TestBuildTableWorkersIdentical: sharded builds must be byte-identical to
// the sequential build for every worker count — group order, per-group row
// order, offsets, and value range included.
func TestBuildTableWorkersIdentical(t *testing.T) {
	rows := shardRows(10_000)
	ref, err := BuildTableWorkers(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := tableFingerprint(ref)
	for _, workers := range []int{2, 3, 5, 8, 16, 61} {
		got, err := BuildTableWorkers(rows, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if fp := tableFingerprint(got); fp != want {
			t.Fatalf("workers=%d table differs from sequential build", workers)
		}
	}
}

// TestBuildTableWorkersShuffledMerge pins the stable merge directly: the
// merged table must be a function of shard *positions*, not of the order
// shards were produced. Stages are filled in a shuffled completion order
// (as a racing pool would) and the merge must still equal the sequential
// build.
func TestBuildTableWorkersShuffledMerge(t *testing.T) {
	rows := shardRows(3_000)
	ref, err := BuildTableWorkers(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := tableFingerprint(ref)

	const nshards = 7
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		stages := make([]*tableStage, nshards)
		order := r.Perm(nshards)
		for _, si := range order { // shuffled completion order
			lo := si * len(rows) / nshards
			hi := (si + 1) * len(rows) / nshards
			s := newTableStage()
			for _, row := range rows[lo:hi] {
				s.add(row.Group, row.Value, nil)
			}
			stages[si] = &s
		}
		got, err := mergeStages(stages, 4)
		if err != nil {
			t.Fatal(err)
		}
		if fp := tableFingerprint(got); fp != want {
			t.Fatalf("trial %d: shuffled shard completion changed the table", trial)
		}
	}
}

// csvPayload renders rows as CSV with a header and assorted spacing.
func csvPayload(rows []Row) string {
	var b strings.Builder
	b.WriteString("group,value\n")
	for i, row := range rows {
		if i%3 == 1 {
			b.WriteString(" ") // leading space: TrimLeadingSpace must hold per shard
		}
		fmt.Fprintf(&b, "%s,%v\n", row.Group, row.Value)
	}
	return b.String()
}

// TestReadCSVWorkersIdentical: the sharded CSV parse must produce a table
// byte-identical to the sequential parse at every worker count, whether
// the reader reports its size (a strings reader, a file) or not.
func TestReadCSVWorkersIdentical(t *testing.T) {
	payload := csvPayload(shardRows(40_000))
	ref, err := ReadCSVWorkers(strings.NewReader(payload), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := tableFingerprint(ref)
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	readers := map[string]func() io.Reader{
		"strings": func() io.Reader { return strings.NewReader(payload) },
		"unsized": func() io.Reader { return struct{ io.Reader }{strings.NewReader(payload)} },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	}
	for name, reader := range readers {
		for _, workers := range []int{0, 2, 3, 4, 9, 32} {
			got, err := ReadCSVWorkers(reader(), workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if fp := tableFingerprint(got); fp != want {
				t.Fatalf("%s workers=%d table differs from sequential parse", name, workers)
			}
		}
	}
	// The sharded parser must serve this input itself: a fallback to the
	// sequential parser would pass every check above.
	if _, ok := readCSVSharded([]byte(payload), 4); !ok {
		t.Fatal("sharded parser fell back on quote-free, well-formed input")
	}
	// Headerless input must shard identically too.
	headerless := strings.TrimPrefix(payload, "group,value\n")
	ref2, err := ReadCSVWorkers(strings.NewReader(headerless), 1)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadCSVWorkers(strings.NewReader(headerless), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tableFingerprint(got2) != tableFingerprint(ref2) {
		t.Fatal("headerless sharded parse differs from sequential")
	}
	if _, ok := readCSVSharded([]byte(headerless), 4); !ok {
		t.Fatal("sharded parser fell back on headerless input")
	}
}

// TestReadCSVWorkersErrorsMatchSequential: a malformed record mid-file
// must surface the canonical sequential error (record number included),
// and quoted fields must take the sequential path rather than risk a bad
// split.
func TestReadCSVWorkersErrorsMatchSequential(t *testing.T) {
	bad := csvPayload(shardRows(2_000)) + "oops,not-a-number\n"
	_, seqErr := ReadCSVWorkers(strings.NewReader(bad), 1)
	if seqErr == nil {
		t.Fatal("sequential parse accepted bad value")
	}
	_, parErr := ReadCSVWorkers(strings.NewReader(bad), 8)
	if parErr == nil || parErr.Error() != seqErr.Error() {
		t.Fatalf("parallel error %q, want canonical %q", parErr, seqErr)
	}

	quoted := "g,1\n\"g\",2\n\"multi\nline\",3\n"
	seq, err := ReadCSVWorkers(strings.NewReader(quoted), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := ReadCSVWorkers(strings.NewReader(quoted), 8)
	if err != nil {
		t.Fatal(err)
	}
	if tableFingerprint(par) != tableFingerprint(seq) {
		t.Fatal("quoted input parsed differently in parallel mode")
	}

	neg := "g,1\nh,-4\ng,2\n"
	_, seqNeg := ReadCSVWorkers(strings.NewReader(neg), 1)
	_, parNeg := ReadCSVWorkers(strings.NewReader(neg), 4)
	if seqNeg == nil || parNeg == nil || parNeg.Error() != seqNeg.Error() {
		t.Fatalf("negative-value errors differ: %v vs %v", parNeg, seqNeg)
	}
}

// TestReadCSVWorkersEmptyLeadingShard: blank lines are skipped by the CSV
// parser, so a shard can stage zero records; the merge must seed the value
// range from the first shard that actually holds rows (regression: an
// empty first shard used to poison MinValue with 0).
func TestReadCSVWorkersEmptyLeadingShard(t *testing.T) {
	payload := strings.Repeat("\n", 1000) + "a,50\nb,60\n"
	for _, workers := range []int{1, 4} {
		tb, err := ReadCSVWorkers(strings.NewReader(payload), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tb.MinValue() != 50 || tb.MaxValue() != 60 {
			t.Fatalf("workers=%d: value range [%v, %v], want [50, 60]", workers, tb.MinValue(), tb.MaxValue())
		}
	}
}

// TestBuildTableWorkersHighCardinality: one group per row keeps the merge
// linear (regression: the pack phase used to rescan every shard per global
// group, quadratic when K ~ rows) and still byte-identical to sequential.
func TestBuildTableWorkersHighCardinality(t *testing.T) {
	rows := make([]Row, 20_000)
	for i := range rows {
		rows[i] = Row{Group: fmt.Sprintf("u%05d", i), Value: float64(i)}
	}
	ref, err := BuildTableWorkers(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildTableWorkers(rows, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tableFingerprint(got) != tableFingerprint(ref) {
		t.Fatal("high-cardinality sharded build differs from sequential")
	}
}
