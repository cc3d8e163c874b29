package dataset

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/xrand"
)

// brokerUniverse builds two universes over identical data: one for a
// stream sampler, one for a broker, so their draws can be compared.
func brokerUniverse(t *testing.T, rows int) (*Universe, *Universe) {
	t.Helper()
	mk := func() *Universe {
		b := NewTableBuilder()
		for i := 0; i < rows; i++ {
			b.Add([]string{"a", "b", "c"}[i%3], float64(i%97))
		}
		tab, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return NewUniverse(100, tab.Groups()...)
	}
	return mk(), mk()
}

// TestBrokerMatchesStreamSampler pins Fill to the stream it retains: at the
// same base, group i's offsets [j, j+n) hold exactly the values a stream
// sampler draws as its j-th to (j+n−1)-th samples, in any chunking and, in
// WOR mode, past exhaustion.
func TestBrokerMatchesStreamSampler(t *testing.T) {
	for _, without := range []bool{false, true} {
		name := "with-replacement"
		if without {
			name = "without-replacement"
		}
		t.Run(name, func(t *testing.T) {
			uSolo, uShared := brokerUniverse(t, 900)
			const base = 0xfeed
			solo := NewStreamSampler(uSolo, base, without)
			broker := NewBroker(uShared, base, without)

			// Chunks of 1–64 draws; 343 draws per group run past the 300
			// rows each group holds.
			want := make([]float64, 64)
			got := make([]float64, 64)
			for round := 0; round < 12; round++ {
				for i := 0; i < uSolo.K(); i++ {
					n := 1 + (round*37+i*11)%64
					from := solo.Count(i)
					solo.DrawBatch(i, want[:n])
					broker.Fill(i, from, got[:n])
					for j := 0; j < n; j++ {
						if got[j] != want[j] {
							t.Fatalf("round %d group %d offset %d: broker %v, stream %v", round, i, from+int64(j), got[j], want[j])
						}
					}
				}
			}
			if without && !solo.Exhausted(0) {
				t.Fatal("the draws never ran past a group's population")
			}
			if broker.Drawn() != solo.Total() || broker.Served() != solo.Total() {
				t.Fatalf("drawn %d, served %d; want both %d", broker.Drawn(), broker.Served(), solo.Total())
			}
		})
	}
}

// TestBrokerLateSubscriberCatchesUp pins the retained prefix: a reader
// that starts at offset 0 after another has driven the streams deep copies
// the same values, and no offset is drawn twice.
func TestBrokerLateSubscriberCatchesUp(t *testing.T) {
	uSolo, uShared := brokerUniverse(t, 600)
	const base = 0xabcd
	solo := NewStreamSampler(uSolo, base, true)
	broker := NewBroker(uShared, base, true)

	// The first reader drives every stream to offset 100 in two blocks.
	buf := make([]float64, 50)
	for i := 0; i < uShared.K(); i++ {
		broker.Fill(i, 0, buf)
		broker.Fill(i, 50, buf)
	}

	// A late reader starts at offset 0 and must see the stream from its
	// start.
	want := make([]float64, 100)
	got := make([]float64, 100)
	for i := 0; i < uShared.K(); i++ {
		solo.DrawBatch(i, want)
		broker.Fill(i, 0, got)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("group %d draw %d: late reader saw %v, stream drew %v", i, j, got[j], want[j])
			}
		}
	}

	if want, got := int64(100*uShared.K()), broker.Drawn(); got != want {
		t.Fatalf("broker drew %d samples, want %d (each offset once)", got, want)
	}
	if want, got := int64(200*uShared.K()), broker.Served(); got != want {
		t.Fatalf("broker served %d samples, want %d", got, want)
	}
}

// TestBrokerConcurrentSubscribers calls Fill from several goroutines at
// once, each walking every group's stream in chunk sizes of its own: every
// reader sees the stream sampler's values and each offset is drawn once.
// Under -race it also pins the per-group locking.
func TestBrokerConcurrentSubscribers(t *testing.T) {
	uRef, uShared := brokerUniverse(t, 1200)
	const base, depth, readers = 0x77, 300, 8
	ref := NewStreamSampler(uRef, base, true)
	want := make([][]float64, uRef.K())
	for i := range want {
		want[i] = make([]float64, depth)
		ref.DrawBatch(i, want[i])
	}
	broker := NewBroker(uShared, base, true)

	var wg sync.WaitGroup
	errs := make(chan string, readers) // each reader reports at most once
	for s := 0; s < readers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			batch := 1 + s*7%31
			buf := make([]float64, batch)
			r := xrand.New(uint64(s))
			for i := 0; i < uShared.K(); i++ {
				for off := 0; off < depth; {
					n := min(1+r.Intn(batch), depth-off)
					broker.Fill(i, int64(off), buf[:n])
					for j := 0; j < n; j++ {
						if buf[j] != want[i][off+j] {
							errs <- fmt.Sprintf("reader %d group %d offset %d: %v, want %v", s, i, off+j, buf[j], want[i][off+j])
							return
						}
					}
					off += n
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if got, want := broker.Served(), int64(readers*depth*uShared.K()); got != want {
		t.Fatalf("served %d, want %d", got, want)
	}
	if got, want := broker.Drawn(), int64(depth*uShared.K()); got != want {
		t.Fatalf("drawn %d, want %d (each offset once)", got, want)
	}
}
