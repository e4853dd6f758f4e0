package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"oblivjoin"
)

// TestSmoke runs every workload untraced and traced at a tiny scale for
// two seconds each and checks that every metric is printed by name with
// a unit, that every query matched the reference join, and that a traced
// run writes its ledger.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts ojoinserver processes")
	}
	bin := filepath.Join(t.TempDir(), "ojoinserver")
	build := exec.Command("go", "build", "-o", bin, "oblivjoin/cmd/ojoinserver")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ojoinserver: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name, want := w.name, endToEndOrder
			if traced {
				name, want = w.name+"/traced", ledgerOrder
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				o := &options{workload: w.name, seed: 7, seconds: 2, trace: traced, serverBin: bin,
					workdir: dir, suppliers: 6, setups: 2, countQueries: 2, minTimed: 1}
				var out bytes.Buffer
				res, err := run(o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				printed := want
				if !traced {
					printed = append(want[:len(want):len(want)], wallOrder...)
				}
				for _, m := range printed {
					line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m) + `\s+\S+ [A-Za-z0-9_/%.-]+$`)
					if !line.MatchString(out.String()) {
						t.Errorf("metric %s is not printed with a unit:\n%s", m, out.String())
					}
				}
				for _, m := range want {
					if got, ok := res.Metrics[m]; !ok || got.Unit == "" {
						t.Errorf("metric %s missing from the result line", m)
					}
				}
				if len(res.Metrics) != len(endToEndOrder) && !traced {
					t.Errorf("result line has %d metrics, want %d", len(res.Metrics), len(endToEndOrder))
				}
				if !strings.Contains(out.String(), `# provenance {"workload":"`+w.name) {
					t.Errorf("no provenance header:\n%s", out.String())
				}
				if traced {
					data, err := os.ReadFile(filepath.Join(dir, "ledger-"+w.name+".json"))
					if err != nil {
						t.Fatal(err)
					}
					var led ledger
					if err := json.Unmarshal(data, &led); err != nil {
						t.Fatalf("ledger: %v", err)
					}
					if len(led.Metrics) != len(ledgerOrder) || len(led.Spans) == 0 || !led.Provenance.Traced ||
						led.Queries == 0 || led.Queries >= led.Measured {
						t.Errorf("ledger has %d metrics, %d span rows, traced=%v, %d of %d queries traced",
							len(led.Metrics), len(led.Spans), led.Provenance.Traced, led.Queries, led.Measured)
					}
				}
			})
		}
	}
}

// TestReferenceJoin checks the plaintext reference on a hand-computed
// three-way join with a filter.
func TestReferenceJoin(t *testing.T) {
	rel := func(name string, cols []string, rows ...[]int64) *oblivjoin.Relation {
		r := &oblivjoin.Relation{}
		r.Schema.Table, r.Schema.Columns = name, cols
		for _, v := range rows {
			r.Tuples = append(r.Tuples, oblivjoin.Tuple{Values: v})
		}
		return r
	}
	rels := map[string]*oblivjoin.Relation{
		"n": rel("n", []string{"k"}, []int64{1}, []int64{2}),
		"s": rel("s", []string{"id", "nk"}, []int64{10, 1}, []int64{11, 1}, []int64{12, 2}),
		"c": rel("c", []string{"id", "nk", "bal"}, []int64{20, 1, 5}, []int64{21, 2, 50}, []int64{22, 1, 500}),
	}
	q := oblivjoin.Query{Tables: []string{"n", "s", "c"},
		Preds:   []oblivjoin.Pred{eq("s", "nk", "n", "k"), eq("c", "nk", "n", "k")},
		Filters: []oblivjoin.Filter{{Table: "c", Preds: []oblivjoin.SelectPred{{Column: "bal", Op: oblivjoin.LT, Value: 100}}}}}
	got, err := referenceJoin(rels, q)
	if err != nil {
		t.Fatal(err)
	}
	// Customer 22 is filtered out: nation 1 pairs suppliers 10 and 11 with
	// customer 20, nation 2 pairs supplier 12 with customer 21.
	cols := []string{"n.k", "s.id", "s.nk", "c.id", "c.nk", "c.bal"}
	want := rowsOf(cols, []oblivjoin.Tuple{
		{Values: []int64{1, 10, 1, 20, 1, 5}},
		{Values: []int64{1, 11, 1, 20, 1, 5}},
		{Values: []int64{2, 12, 2, 21, 2, 50}},
	})
	if d := want.diff(got); d != "" {
		t.Fatalf("reference join: %s", d)
	}
	// Column order must not matter, multiplicity must.
	swapped := rowsOf([]string{"c.bal", "c.id", "c.nk", "n.k", "s.id", "s.nk"}, []oblivjoin.Tuple{
		{Values: []int64{5, 20, 1, 1, 10, 1}},
		{Values: []int64{5, 20, 1, 1, 11, 1}},
		{Values: []int64{50, 21, 2, 2, 12, 2}},
	})
	if d := want.diff(swapped); d != "" {
		t.Fatalf("column order changed the multiset: %s", d)
	}
	swapped["extra"]++
	if want.diff(swapped) == "" {
		t.Fatal("an extra row went unnoticed")
	}
}

// TestQuiet checks which slots time a window: equal steal keeps every
// slot, the more stolen slots are dropped, and slots are added back, least
// stolen first, until the kept ones hold the queries asked for.
func TestQuiet(t *testing.T) {
	// Four one-second slots; two queries end in each.
	w := window{ends: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}}
	for i := 0; i < 8; i++ {
		w.samples = append(w.samples, sample{end: time.Duration(i)*time.Second/2 + time.Millisecond})
	}
	cases := []struct {
		steal []float64
		least int
		kept  int
		dur   time.Duration
	}{
		{[]float64{0, 0, 0, 0}, 1, 8, 4 * time.Second},
		{[]float64{0.3, 0, 0.1, 0.2}, 1, 4, 2 * time.Second},
		{[]float64{0.3, 0, 0.1, 0.2}, 5, 6, 3 * time.Second},
		{[]float64{0.3, 0, 0.1, 0.2}, 100, 8, 4 * time.Second},
	}
	for _, c := range cases {
		w.steal = c.steal
		kept, dur, _ := w.quiet(c.least)
		if len(kept) != c.kept || dur != c.dur {
			t.Errorf("steal %v, least %d: kept %d queries over %s, want %d over %s",
				c.steal, c.least, len(kept), dur, c.kept, c.dur)
		}
	}
}
