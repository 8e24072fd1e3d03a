package main

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestJobPoolIsSeeded(t *testing.T) {
	a, err := jobPool(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := jobPool(1)
	c, _ := jobPool(2)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Errorf("job %d differs for the same seed", i)
		}
		// Only the serving arrival processes follow the seed.
		if same := bytes.Equal(a[i].body, c[i].body); same != (a[i].run != nil) {
			t.Errorf("job %d: same body across seeds = %v", i, same)
		}
	}
}

func TestPassOrder(t *testing.T) {
	pool, _ := jobPool(1)
	order := passOrder(pool, rand.New(rand.NewSource(3)))
	again := passOrder(pool, rand.New(rand.NewSource(3)))
	if len(order) != len(again) {
		t.Fatal("pass length depends on more than the seed")
	}
	count := map[int]int{}
	adjacent := map[int]bool{}
	for i, j := range order {
		if order[i] != again[i] {
			t.Fatal("pass order is not reproducible from the seed")
		}
		count[j]++
		if i > 0 && order[i-1] == j {
			adjacent[j] = true
		}
	}
	for i, j := range pool {
		want := 1
		if j.hot {
			want = 3
			if !adjacent[i] {
				t.Errorf("popular job %d has no back-to-back copy", i)
			}
		}
		if count[i] != want {
			t.Errorf("job %d submitted %d times, want %d", i, count[i], want)
		}
	}
}

// TestDaemonPassChecks drives one pass through an in-process daemon and
// checks that every report validates, then that the byte-identity check
// catches a report that differs for the same digest.
func TestDaemonPassChecks(t *testing.T) {
	pool, err := jobPool(1)
	if err != nil {
		t.Fatal(err)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	d, err := startDaemon(pool, client)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	r := &run{seconds: 0}
	st := closedLoop(r, d, client, pool, rand.New(rand.NewSource(1)))
	lat, completed := r.account(st)
	if r.failed != 0 || completed != len(lat) {
		t.Fatalf("%d of %d submissions failed: %v", r.failed, len(lat),
			r.notes)
	}
	reports := r.checkReports(st)
	if len(r.problems) != 0 {
		t.Fatalf("output checks failed: %v", r.problems)
	}
	if len(reports) != len(pool) {
		t.Errorf("%d distinct reports, want %d", len(reports), len(pool))
	}

	// Corrupt one report of a job that ran more than once.
	seen := map[string]int{}
	for i, j := range st.results {
		if prev, ok := seen[j.digest]; ok && st.results[prev].id != j.id {
			st.results[i].report = append([]byte(" "), j.report...)
			r.checkReports(st)
			if len(r.problems) == 0 {
				t.Error("byte-identity check missed a differing report")
			}
			return
		}
		seen[j.digest] = i
	}
	t.Fatal("no job ran twice in one pass")
}
