package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"oblivjoin"
)

// sample is one finished query.
type sample struct {
	client  int
	latency time.Duration
	end     time.Duration // when the query returned, from the window's start
	blocks  int64         // server-visible blocks moved (meter)
	rounds  int64         // network round trips (meter)
	err     string
	ans     *answer
	trace   *oblivjoin.TraceNode // traced runs only
}

// loop runs every client's closed loop: a client sends its next query only
// after the previous one returned. Each client stops starting queries once
// dur has passed since the loop began.
type loop struct {
	w    *workload
	d    *deployment
	next []int // per client: index of its next job

	mu         sync.Mutex
	traffic    map[string][2]int64 // shape -> (blocks, rounds) of its first warm run
	bytesAfter int                 // queries per client after which server bytes are read
	bytesAt    []int64             // per client, -1 until read
	attempted  int
	failed     int
	firstErr   string
}

func newLoop(w *workload, d *deployment, bytesAfter int) *loop {
	l := &loop{w: w, d: d, next: make([]int, w.clients), traffic: make(map[string][2]int64),
		bytesAfter: bytesAfter, bytesAt: make([]int64, w.clients)}
	for c := range l.bytesAt {
		l.bytesAt[c] = -1
	}
	return l
}

// warm runs each client's warm-up queries (checked, not timed). Traffic
// of a warm-up query is not a warm-cache reference.
func (l *loop) warm() {
	var wg sync.WaitGroup
	for c := 0; c < l.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < l.w.warmup; i++ {
				l.one(c, false, false)
			}
		}(c)
	}
	wg.Wait()
}

// window is one measured stretch of closed-loop queries.
type window struct {
	samples []sample
	elapsed time.Duration // until the last query returned
	// steal is the share of CPU time the hypervisor stole in each slot of
	// about a second; slot i ends ends[i] after the window's start. Both
	// are nil where /proc/stat is unavailable.
	steal []float64
	ends  []time.Duration
}

// run measures for dur. Each client stops starting queries once dur has
// passed since the window began. With alternate set, queries that start in
// the window's odd one-second slots are traced and the others are not, so
// traced and untraced queries see the same conditions.
func (l *loop) run(dur time.Duration, alternate bool) window {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []sample
	)
	start := time.Now()
	stop := make(chan struct{})
	slots := make(chan window)
	go func() {
		// Reading /proc/stat once a second costs microseconds; the
		// readings say which seconds the host disturbed.
		tick := time.NewTicker(slot)
		defer tick.Stop()
		var w window
		prev := readCPUTimes()
		for {
			select {
			case <-tick.C:
				cur := readCPUTimes()
				if share := cur.stolenSince(prev); share >= 0 {
					w.steal = append(w.steal, share)
					w.ends = append(w.ends, time.Since(start))
				}
				prev = cur
			case <-stop:
				slots <- w
				return
			}
		}
	}()
	for c := 0; c < l.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for since := time.Since(start); since < dur; since = time.Since(start) {
				s := l.one(c, true, alternate && (since/slot)%2 == 1)
				s.end = time.Since(start)
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	w := <-slots
	w.samples, w.elapsed = all, elapsed
	return w
}

// slot is the interval at which the host's steal is read.
const slot = time.Second

// quiet returns the queries that ended in the window's quieter slots, the
// length of those slots, and the mean steal share over them. Other tenants
// of the machine slow every query while the hypervisor steals its CPUs;
// timing the quieter slots measures the program rather than its
// neighbours, the same way for every version of it. Every slot whose steal
// is at most the median slot's is kept, so equal readings are kept alike
// and a calm window is timed whole; then further slots, least stolen
// first, until the kept slots hold at least least queries. Queries that
// ended after the last slot are not timed. Without steal readings every
// query is kept.
func (w window) quiet(least int) ([]sample, time.Duration, float64) {
	if len(w.steal) < 2 {
		return w.samples, w.elapsed, w.stolen()
	}
	slotOf := func(s sample) int {
		return sort.Search(len(w.ends), func(i int) bool { return w.ends[i] > s.end })
	}
	per := make([]int, len(w.steal))
	for _, s := range w.samples {
		if i := slotOf(s); i < len(per) {
			per[i]++
		}
	}
	order := make([]int, len(w.steal))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return w.steal[order[a]] < w.steal[order[b]] })
	med := w.steal[order[(len(order)-1)/2]]
	keep := make([]bool, len(w.steal))
	var (
		dur          time.Duration
		count        int
		steal, slots float64
	)
	for _, i := range order {
		if w.steal[i] > med && count >= least {
			break
		}
		keep[i] = true
		count += per[i]
		steal += w.steal[i]
		slots++
		dur += w.ends[i]
		if i > 0 {
			dur -= w.ends[i-1]
		}
	}
	var kept []sample
	for _, s := range w.samples {
		if i := slotOf(s); i < len(keep) && keep[i] {
			kept = append(kept, s)
		}
	}
	return kept, dur, steal / slots
}

// stolen is the mean steal share over the window's slots.
func (w window) stolen() float64 {
	var t float64
	for _, x := range w.steal {
		t += x
	}
	return ratio(t, float64(len(w.steal)))
}

// one runs client c's next query, checks it against the reference join
// and, when warm, against the traffic of earlier runs of the same shape.
func (l *loop) one(c int, warm, traced bool) sample {
	db := l.d.dbs[c]
	j := l.w.job(l.d.in, c, l.next[c])
	l.next[c]++
	s := sample{client: c}

	before := db.Stats()
	if traced {
		db.StartTrace("bench.query")
	}
	t0 := time.Now()
	ans, err := j.call(db)
	s.latency = time.Since(t0)
	delta := db.Stats().Sub(before)
	if traced {
		s.trace = db.EndTrace().Export()
	}
	s.blocks, s.rounds, s.ans = delta.BlocksMoved(), delta.NetworkRounds, ans

	if err != nil {
		s.err = err.Error()
	} else if want, rerr := l.d.in.want(c, j); rerr != nil {
		s.err = rerr.Error()
	} else if d := want.diff(rowsOf(ans.cols, ans.tuples)); d != "" {
		s.err = "wrong result: " + d
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if s.err == "" && warm && j.shape != "" {
		got := [2]int64{s.blocks, s.rounds}
		if ref, ok := l.traffic[j.shape]; !ok {
			l.traffic[j.shape] = got
		} else if ref != got {
			s.err = fmt.Sprintf("shape %s moved %d blocks / %d rounds, earlier %d / %d: traffic is not a function of public sizes",
				j.shape, got[0], got[1], ref[0], ref[1])
		}
	}
	l.attempted++
	if s.err != "" {
		l.failed++
		if l.firstErr == "" {
			l.firstErr = fmt.Sprintf("client %d query %d: %s", c, l.next[c]-1, s.err)
		}
	}
	if l.next[c] == l.bytesAfter && l.bytesAt[c] < 0 {
		if n, err := l.d.serverBytes(c); err == nil {
			l.bytesAt[c] = n
		}
	}
	return s
}

// serverBytes sums the per-client server footprints read after the fixed
// query count; ok is false if some client never reached it.
func (l *loop) serverBytes() (total int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, n := range l.bytesAt {
		if n < 0 {
			return 0, false
		}
		total += n
	}
	return total, true
}
