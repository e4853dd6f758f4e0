package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"oblivjoin"
	"oblivjoin/internal/tpch"
)

// workload is one named deployment plus the closed-loop query stream its
// clients send. README.md says why each exists and which layers it loads.
type workload struct {
	name      string
	suppliers int // TPC-H scale (supplier rows)
	clients   int
	servers   int  // ojoinserver children; 0 = in-process MemStores
	disk      bool // servers persist to -data-dir
	syncEvery int  // WAL group commit interval of disk servers
	warmup    int  // queries per client before the measured window
	planner   bool // queries go through Database.Run, else SortMergeJoin
	config    oblivjoin.Config
	// tables lists client c's relations and the attributes to index.
	tables func(d *tpch.DB, c int) []tableDef
	// query builds client c's query around its filters.
	query func(c int, filters []oblivjoin.Filter) oblivjoin.Query
	// filter, when set, gives every query a window filter. With shapes > 0
	// query i reuses window i mod shapes; otherwise every query takes the
	// next window and no filter constant repeats.
	filter *windowSpec
	shapes int
}

type tableDef struct {
	rel   *oblivjoin.Relation
	index []string
}

// windowSpec describes a workload's filter windows: width consecutive
// ranks of table.col, kept only if the query's reference result has
// between minOut (exclusive) and maxOut (inclusive) rows. Choosing by rank
// and by result size fixes the public shape: under PadClosestPower every
// window pads its filtered input and its output to the same power of two
// under every seed, so traffic does not move with the seed.
type windowSpec struct {
	table          func(c int) string
	col            string
	width          int
	minOut, maxOut int
}

// job is one query: the call into the facade and the reference it must
// match. shape names the public query shape for the traffic-identity
// check and keys the cached reference result; "" exempts the query from
// both.
type job struct {
	shape string
	query oblivjoin.Query // the declarative form, also fed to the reference join
	call  func(db *oblivjoin.Database) (*answer, error)
}

// answer is what a query returned, normalised across the facade's entry
// points.
type answer struct {
	cols   []string
	tuples []oblivjoin.Tuple
	res    *oblivjoin.Result
	out    *oblivjoin.QueryOutput // nil for direct join calls
}

// inputs holds a run's generated relations and seed-derived constants.
// Only the generator sees the seed; the system under test sees only the
// generated relations and the query constants.
type inputs struct {
	data *tpch.DB
	rels []map[string]*oblivjoin.Relation // per client, by table name
	vals []int64                          // sorted values of the filtered column
	// ranks are the start ranks of the kept windows, in seed-shuffled order.
	ranks []int

	mu  sync.Mutex
	ref map[string]multiset // reference results of repeating shapes
}

func newInputs(w *workload, seed int64, suppliers int) *inputs {
	in := &inputs{data: tpch.Generate(tpch.Config{Suppliers: suppliers, Seed: seed}), ref: make(map[string]multiset)}
	for c := 0; c < w.clients; c++ {
		m := make(map[string]*oblivjoin.Relation)
		for _, t := range w.tables(in.data, c) {
			m[t.rel.Schema.Table] = t.rel
		}
		in.rels = append(in.rels, m)
	}
	return in
}

// chooseWindows picks the workload's filter windows from the generated
// data. It runs one reference join per candidate rank, which is the
// benchmark's own work, so it runs once per run and outside set-up.
func (in *inputs) chooseWindows(w *workload, seed int64) error {
	f := w.filter
	if f == nil {
		return nil
	}
	rel := in.rels[0][f.table(0)]
	col := rel.Schema.Col(f.col)
	for _, t := range rel.Tuples {
		in.vals = append(in.vals, t.Values[col])
	}
	sort.Slice(in.vals, func(i, j int) bool { return in.vals[i] < in.vals[j] })
	var all []int
	for rank := 0; rank+f.width <= len(in.vals); rank++ {
		all = append(all, rank)
		want, err := referenceJoin(in.rels[0], w.query(0, []oblivjoin.Filter{in.window(f, 0, rank, 0)}))
		if err != nil {
			return err
		}
		if n := want.size(); n > f.minOut && n <= f.maxOut {
			in.ranks = append(in.ranks, rank)
		}
	}
	if len(in.ranks) == 0 {
		// Only at scales far below the workload's own (smoke tests) can
		// no window fit; every window is then used.
		in.ranks = all
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(in.ranks), func(i, j int) { in.ranks[i], in.ranks[j] = in.ranks[j], in.ranks[i] })
	return nil
}

// window is client c's filter [vals[rank], vals[rank+width]) on the
// window column, with the lower bound lowered by shift so that windows
// reused on a later pass get distinct constants. Past the last rank the
// upper bound is one above the largest value.
func (in *inputs) window(f *windowSpec, c, rank int, shift int64) oblivjoin.Filter {
	hi := in.vals[len(in.vals)-1] + 1
	if rank+f.width < len(in.vals) {
		hi = in.vals[rank+f.width]
	}
	return oblivjoin.Filter{Table: f.table(c), Preds: []oblivjoin.SelectPred{
		{Column: f.col, Op: oblivjoin.GE, Value: in.vals[rank] - shift},
		{Column: f.col, Op: oblivjoin.LT, Value: hi},
	}}
}

// job returns client c's i-th query (i counts from 0 at the first warm-up
// query).
func (w *workload) job(in *inputs, c, i int) job {
	shape := w.name
	var filters []oblivjoin.Filter
	if w.filter != nil {
		pos := i
		if w.shapes > 0 {
			pos = i % w.shapes
			shape = fmt.Sprintf("window-%d", pos)
		} else {
			// Every window is new; batched eviction also lets the
			// block count of equal shapes differ by a block.
			shape = ""
		}
		rank := in.ranks[pos%len(in.ranks)]
		filters = []oblivjoin.Filter{in.window(w.filter, c, rank, int64(pos/len(in.ranks)))}
	}
	q := w.query(c, filters)
	if w.planner {
		return job{shape: shape, query: q, call: func(db *oblivjoin.Database) (*answer, error) {
			out, err := db.Run(q)
			if err != nil {
				return nil, err
			}
			return &answer{cols: out.Columns, tuples: out.Tuples, res: out.Result, out: out}, nil
		}}
	}
	p := q.Preds[0]
	return job{shape: shape, query: q, call: func(db *oblivjoin.Database) (*answer, error) {
		res, err := db.SortMergeJoin(p.Left, p.LeftAttr, p.Right, p.RightAttr)
		if err != nil {
			return nil, err
		}
		return &answer{cols: res.Schema.Columns, tuples: res.Tuples, res: res}, nil
	}}
}

// want returns the reference result of client c's query, caching it under
// the job's shape when the shape repeats.
func (in *inputs) want(c int, j job) (multiset, error) {
	if j.shape == "" {
		return referenceJoin(in.rels[c], j.query)
	}
	key := fmt.Sprintf("%d/%s", c, j.shape)
	in.mu.Lock()
	defer in.mu.Unlock()
	if m, ok := in.ref[key]; ok {
		return m, nil
	}
	m, err := referenceJoin(in.rels[c], j.query)
	if err == nil {
		in.ref[key] = m
	}
	return m, err
}

func eq(l, la, r, ra string) oblivjoin.Pred {
	return oblivjoin.Pred{Left: l, LeftAttr: la, Right: r, RightAttr: ra}
}

func supplierOf(c int) string { return fmt.Sprintf("supplier%d", c) }

func customerOf(c int) string { return fmt.Sprintf("customer%d", c) }

// The scales, window widths and result-size ranges below are chosen so
// that each padded size sits well inside its power-of-two bucket (README.md
// gives the arithmetic).
var workloads = []*workload{
	{
		name: "smj-local", suppliers: 18, clients: 1, warmup: 1,
		config: oblivjoin.Config{Padding: oblivjoin.PadClosestPower},
		tables: func(d *tpch.DB, _ int) []tableDef {
			return []tableDef{{d.Supplier, []string{"s_nationkey"}}, {d.Customer, []string{"c_nationkey"}}}
		},
		query: func(_ int, _ []oblivjoin.Filter) oblivjoin.Query {
			return oblivjoin.Query{Tables: []string{"supplier", "customer"},
				Preds: []oblivjoin.Pred{eq("supplier", "s_nationkey", "customer", "c_nationkey")}}
		},
	},
	{
		name: "planner-remote-2c", suppliers: 16, clients: 2, servers: 1, warmup: 8, planner: true,
		config: oblivjoin.Config{Padding: oblivjoin.PadClosestPower},
		tables: func(d *tpch.DB, c int) []tableDef {
			return []tableDef{
				{d.Supplier.Alias(supplierOf(c)), []string{"s_nationkey"}},
				{d.Customer.Alias(customerOf(c)), []string{"c_nationkey"}},
			}
		},
		query: func(c int, filters []oblivjoin.Filter) oblivjoin.Query {
			return oblivjoin.Query{Tables: []string{supplierOf(c), customerOf(c)},
				Preds:   []oblivjoin.Pred{eq(supplierOf(c), "s_nationkey", customerOf(c), "c_nationkey")},
				Filters: filters}
		},
		filter: &windowSpec{table: supplierOf, col: "s_acctbal", width: 4, minOut: 32, maxOut: 64},
		shapes: 8,
	},
	{
		name: "multiway-disk-2shard", suppliers: 29, clients: 1, servers: 2, disk: true, syncEvery: 16, warmup: 2, planner: true,
		config: oblivjoin.Config{EnableMultiway: true, EvictionBatch: 16, Padding: oblivjoin.PadClosestPower},
		tables: func(d *tpch.DB, _ int) []tableDef {
			return []tableDef{
				{d.Nation, []string{"n_nationkey"}},
				{d.Supplier, []string{"s_nationkey"}},
				{d.Customer, []string{"c_nationkey"}},
			}
		},
		query: func(_ int, filters []oblivjoin.Filter) oblivjoin.Query {
			return oblivjoin.Query{Tables: []string{"nation", "supplier", "customer"},
				Preds: []oblivjoin.Pred{
					eq("supplier", "s_nationkey", "nation", "n_nationkey"),
					eq("customer", "c_nationkey", "nation", "n_nationkey"),
				},
				Filters: filters}
		},
		filter: &windowSpec{table: func(int) string { return "customer" }, col: "c_acctbal", width: 6, minOut: 4, maxOut: 8},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// flushPolicy describes how the workload's servers make writes durable.
func (w *workload) flushPolicy() string {
	switch {
	case w.disk:
		return fmt.Sprintf("WAL group commit: fsync every %d batches (-sync-every %d)", w.syncEvery, w.syncEvery)
	case w.servers > 0:
		return "none (in-memory ojoinserver)"
	}
	return "none (in-process MemStore)"
}

// deployment is one set-up: servers started and every client's tables
// sealed, ready for its first query.
type deployment struct {
	in        *inputs
	servers   []*server
	dbs       []*oblivjoin.Database
	dirs      []string
	userBytes int64 // plaintext bytes of every client's tables

	total, serverStart, seal time.Duration
	// cpu is the set-up's CPU time: the benchmark process's (data
	// generation, connecting, sealing) plus every server's since it started.
	cpu time.Duration
}

// setup generates the data, starts the servers and waits for /healthz,
// connects every client and seals its tables. Building binaries is not
// part of it.
func (w *workload) setup(o *options, idx int) (*deployment, error) {
	start, cpu0 := time.Now(), clientCPU()
	d := &deployment{in: newInputs(w, o.seed, o.suppliers)}
	fail := func(err error) (*deployment, error) {
		d.close()
		return nil, err
	}

	t := time.Now()
	for s := 0; s < w.servers; s++ {
		var dataDir string
		if w.disk {
			dataDir = filepath.Join(o.workdir, fmt.Sprintf("setup%d-shard%d", idx, s))
			if err := os.RemoveAll(dataDir); err != nil {
				return fail(err)
			}
			d.dirs = append(d.dirs, dataDir)
		}
		logPath := filepath.Join(o.workdir, fmt.Sprintf("setup%d-server%d.log", idx, s))
		srv, err := startServer(o.serverBin, logPath, dataDir, w.syncEvery)
		if err != nil {
			return fail(err)
		}
		d.servers = append(d.servers, srv)
	}
	d.serverStart = time.Since(t)

	for c := 0; c < w.clients; c++ {
		db := oblivjoin.NewDatabase(w.config)
		d.dbs = append(d.dbs, db)
		var err error
		switch len(d.servers) {
		case 0:
		case 1:
			err = db.ConnectRemote(d.servers[0].addr)
		default:
			addrs := make([]string, len(d.servers))
			for s, srv := range d.servers {
				addrs[s] = srv.addr
			}
			err = db.ConnectShards(addrs)
		}
		if err != nil {
			return fail(fmt.Errorf("connect: %w", err))
		}
		for _, t := range w.tables(d.in.data, c) {
			if err := db.AddTable(t.rel, t.index...); err != nil {
				return fail(err)
			}
			d.userBytes += int64(t.rel.Len()) * int64(t.rel.Schema.TupleSize())
		}
		t := time.Now()
		if err := db.Seal(); err != nil {
			return fail(fmt.Errorf("seal: %w", err))
		}
		d.seal += time.Since(t)
	}
	d.total = time.Since(start)
	srv, err := d.serverCPU()
	if err != nil {
		return fail(err)
	}
	d.cpu = clientCPU() - cpu0 + srv
	return d, nil
}

// serverCPU is the CPU time every server of d has used since it started.
func (d *deployment) serverCPU() (time.Duration, error) {
	var total time.Duration
	for _, s := range d.servers {
		t, err := s.cpuTime()
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

// serverBytes is the server-side footprint client c is responsible for:
// data-dir files for disk servers (their workload has one client),
// CloudBytes otherwise (which omits plan-cache intermediates).
func (d *deployment) serverBytes(c int) (int64, error) {
	if len(d.dirs) > 0 {
		var total int64
		for _, dir := range d.dirs {
			n, err := dirBytes(dir)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return total, nil
	}
	return d.dbs[c].CloudBytes(), nil
}

// close disconnects the clients, stops the servers and removes their data.
func (d *deployment) close() {
	for _, db := range d.dbs {
		_ = db.Close() // the run is over; a failed goodbye changes nothing
	}
	for _, s := range d.servers {
		s.stop()
	}
	for _, dir := range d.dirs {
		_ = os.RemoveAll(dir) // scratch data inside the build directory
	}
}
