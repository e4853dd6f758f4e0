package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"oblivjoin"
)

// ledgerOrder lists every per-layer metric of a traced run, in report
// order. README.md gives each one's source and the end-to-end metric it
// should move.
var ledgerOrder = []string{
	"oram.cpu_ms", "xcrypto.cpu_ms", "runtime.alloc_gc_frac", "storage.cpu_ms",
	"obliv.cpu_ms", "obliv.sort_ms", "core.filter_ms", "core.merge_ms", "core.load_ms",
	"core.pad_ms", "core.decode_ms", "core.cpu_ms", "core.padded_steps",
	"btree.cpu_ms", "query.cpu_ms", "query.self_ms", "query.cache_hit_frac",
	"operators.pushdown_ms", "operators.cpu_ms", "query.prepare_blocks", "query.predicted_blocks_frac",
	"client.cpu_ms", "client.offcpu_ms", "remote.client_cpu_ms", "remote.wire_ms", "remote.requests",
	"remote.server_op_ms", "remote.store_io_ms", "server.cpu_ms", "session.queue_wait_ms", "session.contended_frac",
	"diskstore.fsync_ms", "diskstore.fsyncs", "diskstore.checkpoints", "diskstore.wal_bytes_per_block_written",
	"shard.skew", "shard.cpu_ms",
	"table.seal_s", "setup.server_start_s",
	"client.bytes",
	"trace.coverage_frac", "trace.overhead_frac",
}

// ledger is the per-workload JSON a traced run writes.
type ledger struct {
	Provenance provenance           `json:"provenance"`
	Measured   int                  `json:"measured_queries"`
	Queries    int                  `json:"traced_queries"`
	Metrics    map[string]metric    `json:"metrics"`
	ProfileMS  map[string]float64   `json:"profile_cpu_ms_per_query_by_layer"`
	Spans      []spanRow            `json:"span_tree"`
	Servers    []map[string]float64 `json:"server_metrics_delta"`
}

// spanRow aggregates every span at one path of the per-query trees.
type spanRow struct {
	Path    string  `json:"path"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms_per_query"`
	SelfMS  float64 `json:"self_ms_per_query"`
	Blocks  float64 `json:"blocks_per_query"`
}

// serverSnap is one server's counters at a point in time.
type serverSnap struct {
	metrics map[string]float64
	cpu     time.Duration
}

func snapServers(d *deployment) ([]serverSnap, error) {
	out := make([]serverSnap, len(d.servers))
	for i, s := range d.servers {
		m, err := s.scrape()
		if err != nil {
			return nil, err
		}
		cpu, err := s.cpuTime()
		if err != nil {
			return nil, err
		}
		out[i] = serverSnap{m, cpu}
	}
	return out, nil
}

func clientCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// traced measures the window with a client CPU profile and server /metrics
// and /proc deltas, and with a span tree for the queries that start in its
// odd one-second slots; it writes the ledger and returns it. Profile,
// rusage and server figures are per measured query; span figures are per
// traced query. trace.overhead_frac compares the traced queries with the
// untraced ones of the same window.
func traced(o *options, d *deployment, l *loop, window time.Duration, prov provenance,
	sealS, serverStartS float64) (*ledger, error) {
	before, err := snapServers(d)
	if err != nil {
		return nil, err
	}
	cacheBefore := make([]oblivjoin.PlanCacheStats, len(d.dbs))
	for c, db := range d.dbs {
		cacheBefore[c] = db.PlanCacheStats()
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	cpu0 := clientCPU()
	win := l.run(window, true)
	samples := win.samples
	cpu := clientCPU() - cpu0
	pprof.StopCPUProfile()
	after, err := snapServers(d)
	if err != nil {
		return nil, err
	}
	var tracedSamples []sample
	var tracedMS, plainMS float64
	for _, s := range samples {
		if s.trace != nil {
			tracedSamples = append(tracedSamples, s)
			tracedMS += float64(s.latency)
		} else {
			plainMS += float64(s.latency)
		}
	}
	nt := float64(len(tracedSamples))
	if nt == 0 || nt == float64(len(samples)) {
		return nil, fmt.Errorf("the traced window needs both traced and untraced queries; lengthen it")
	}
	n := float64(len(samples))
	perQ := func(v float64) float64 { return v / n }
	perTraced := func(v float64) float64 { return v / nt }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Client CPU profile, attributed to layers.
	cpuSamples, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	byLayer := make(map[string]float64)
	var totalNS, allocNS float64
	for _, s := range cpuSamples {
		byLayer[sampleLayer(s.stack)] += float64(s.ns)
		totalNS += float64(s.ns)
		if inAllocGC(s.stack) {
			allocNS += float64(s.ns)
		}
	}
	profileMS := make(map[string]float64, len(byLayer))
	for k, v := range byLayer {
		profileMS[k] = perQ(v / 1e6)
	}
	for _, layer := range []string{"oram", "xcrypto", "storage", "obliv", "core", "btree", "query", "operators", "shard"} {
		set(layer+".cpu_ms", profileMS[layer], "ms")
	}
	set("remote.client_cpu_ms", profileMS["remote"], "ms")
	set("runtime.alloc_gc_frac", ratio(allocNS, totalNS), "frac")

	// Span trees of the traced queries.
	agg := make(map[string]*spanRow)
	var tracedWall, covered, querySelf float64
	for _, s := range tracedSamples {
		lat := ms(s.latency)
		tracedWall += lat
		childMS := 0.0
		for _, c := range s.trace.Children {
			if !strings.HasPrefix(c.Name, "server.") {
				childMS += ms(c.Duration())
			}
		}
		querySelf += max(0, lat-childMS)
		addSpans(agg, s.trace, "", "", &covered)
	}
	// Per-query results of every measured query.
	var wall, paddedSteps, prepareBlocks, predicted, measured float64
	for _, s := range samples {
		wall += ms(s.latency)
		if s.ans != nil && s.ans.res != nil {
			paddedSteps += float64(s.ans.res.PaddedSteps)
		}
		if s.ans != nil && s.ans.out != nil {
			prepareBlocks += float64(s.ans.out.PrepareStats.BlocksMoved())
			predicted += float64(s.ans.out.Plan.Best().Cost.Blocks)
			measured += float64(s.blocks)
		}
	}
	rows := make([]spanRow, 0, len(agg))
	for _, r := range agg {
		r.TotalMS, r.SelfMS, r.Blocks = perTraced(r.TotalMS), perTraced(r.SelfMS), perTraced(r.Blocks)
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Path < rows[j].Path })
	phase := func(names ...string) float64 {
		var t float64
		for _, r := range rows {
			for _, nm := range names {
				if r.Layer == "core" && lastElem(r.Path) == nm {
					t += r.TotalMS
				}
			}
		}
		return t
	}
	var sortMS, pushdownMS float64
	for _, r := range rows {
		if isObliv(lastElem(r.Path)) && !oblivAncestor(r.Path) {
			sortMS += r.TotalMS
		}
		if lastElem(r.Path) == "op.select" {
			pushdownMS += r.TotalMS
		}
	}
	set("obliv.sort_ms", sortMS, "ms")
	set("core.filter_ms", phase("filter"), "ms")
	set("core.merge_ms", phase("merge", "scan"), "ms")
	set("core.load_ms", phase("load"), "ms")
	set("core.pad_ms", phase("pad"), "ms")
	set("core.decode_ms", phase("decode"), "ms")
	set("core.padded_steps", perQ(paddedSteps), "count")
	set("query.self_ms", perTraced(querySelf), "ms")
	set("operators.pushdown_ms", pushdownMS, "ms")
	set("query.prepare_blocks", perQ(prepareBlocks), "count")
	set("query.predicted_blocks_frac", ratio(predicted, measured), "frac")

	var hits, lookups float64
	for c, db := range d.dbs {
		st := db.PlanCacheStats()
		h, mi := st.Hits-cacheBefore[c].Hits, st.Misses-cacheBefore[c].Misses
		hits += float64(h)
		lookups += float64(h + mi)
	}
	set("query.cache_hit_frac", ratio(hits, lookups), "frac")

	// Client CPU versus waiting, and the server side.
	cpuMS := perQ(ms(cpu))
	offMS := max(0, wall/n-cpuMS)
	set("client.cpu_ms", cpuMS, "ms")
	set("client.offcpu_ms", offMS, "ms")

	deltas := make([]map[string]float64, len(d.servers))
	var serverCPU time.Duration
	for i := range d.servers {
		deltas[i] = make(map[string]float64)
		for k, v := range after[i].metrics {
			if dv := v - before[i].metrics[k]; dv != 0 {
				deltas[i][k] = dv
			}
		}
		serverCPU += after[i].cpu - before[i].cpu
	}
	sum := func(name string) float64 {
		var t float64
		for _, dm := range deltas {
			for k, v := range dm {
				if k == name || strings.HasPrefix(k, name+"{") {
					t += v
				}
			}
		}
		return t
	}
	serverOpMS := perQ(sum("ojoin_op_duration_seconds_sum") * 1000)
	set("remote.requests", perQ(sum("ojoin_server_requests_total")), "count")
	set("remote.server_op_ms", serverOpMS, "ms")
	wire := 0.0
	if len(d.servers) > 0 {
		wire = max(0, offMS-serverOpMS)
	}
	set("remote.wire_ms", wire, "ms")
	set("remote.store_io_ms", perQ(sum("ojoin_store_io_seconds_sum")*1000), "ms")
	set("server.cpu_ms", perQ(ms(serverCPU)), "ms")
	set("session.queue_wait_ms", perQ(sum("ojoin_broker_queue_wait_seconds_sum")*1000), "ms")
	set("session.contended_frac", ratio(sum("ojoin_broker_contended_total"), sum("ojoin_broker_rounds_total")), "frac")
	set("diskstore.fsync_ms", perQ(sum("ojoin_disk_wal_fsync_seconds_sum")*1000), "ms")
	set("diskstore.fsyncs", perQ(sum("ojoin_disk_wal_fsyncs_total")+sum("ojoin_disk_seg_fsyncs_total")), "count")
	set("diskstore.checkpoints", perQ(sum("ojoin_disk_checkpoints_total")), "count")
	set("diskstore.wal_bytes_per_block_written", ratio(sum("ojoin_disk_wal_bytes_total"), sum("ojoin_disk_blocks_written_total")), "bytes")

	skew := 0.0
	if len(deltas) > 0 {
		var most, total float64
		for _, dm := range deltas {
			var b float64
			for k, v := range dm {
				if strings.HasPrefix(k, "ojoin_store_blocks_read_total{") || strings.HasPrefix(k, "ojoin_store_blocks_written_total{") {
					b += v
				}
			}
			most, total = max(most, b), total+b
		}
		skew = ratio(most, total/float64(len(deltas)))
	}
	set("shard.skew", skew, "ratio")

	set("table.seal_s", sealS, "s")
	set("setup.server_start_s", serverStartS, "s")
	var clientBytes int64
	for _, db := range d.dbs {
		clientBytes += db.ClientBytes()
	}
	set("client.bytes", float64(clientBytes), "bytes")
	set("trace.coverage_frac", ratio(covered, tracedWall), "frac")
	// In a closed loop throughput is the inverse of mean latency, so the
	// throughput tracing costs is one minus the ratio of the mean latencies.
	set("trace.overhead_frac", 1-(plainMS/(n-nt))/(tracedMS/nt), "frac")

	led := &ledger{Provenance: prov, Measured: len(samples), Queries: len(tracedSamples), Metrics: m, ProfileMS: profileMS, Spans: rows, Servers: deltas}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(o.ledger, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return led, nil
}

// addSpans folds node's children into agg by path and adds the self time of
// every span that belongs to a layer to covered. Server subtrees are kept
// down to their phase groups and count towards no client layer.
func addSpans(agg map[string]*spanRow, node *oblivjoin.TraceNode, path, layer string, covered *float64) {
	for _, c := range node.Children {
		p := path + "/" + c.Name
		cl := spanLayer(c.Name, layer)
		r := agg[p]
		if r == nil {
			r = &spanRow{Path: p, Layer: cl}
			agg[p] = r
		}
		total := float64(c.DurationNS) / 1e6
		childMS := 0.0
		for _, g := range c.Children {
			childMS += float64(g.DurationNS) / 1e6
		}
		self := max(0, total-childMS)
		r.Count++
		r.TotalMS += total
		r.SelfMS += self
		r.Blocks += float64(c.Stats.BlockReads + c.Stats.BlockWrites)
		if cl == "server" {
			if !strings.HasPrefix(c.Name, "phase.") {
				addSpans(agg, c, p, cl, covered)
			}
			continue
		}
		*covered += self
		addSpans(agg, c, p, cl, covered)
	}
}

// spanLayer maps a span name to the layer that records it; the parent's
// layer decides generic names such as "scan".
func spanLayer(name, parent string) string {
	switch {
	case strings.HasPrefix(name, "server."), parent == "server":
		return "server"
	case isObliv(name):
		return "obliv"
	case strings.HasPrefix(name, "op."):
		return "operators"
	case strings.HasPrefix(name, "join."):
		return "core"
	}
	if parent == "" {
		return "other"
	}
	return parent
}

func isObliv(name string) bool { return strings.HasPrefix(name, "sort.") || name == "compact" }

func lastElem(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// oblivAncestor reports whether a span above the one at path is an
// oblivious sort or compaction, so nested sort spans are counted once.
func oblivAncestor(path string) bool {
	parts := strings.Split(path, "/")
	for _, p := range parts[:len(parts)-1] {
		if isObliv(p) {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
