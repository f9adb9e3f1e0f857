// Command perfbench is the end-to-end benchmark of knncostd. It starts the
// daemon built from this checkout with its default flags (changing only the
// listen address, the boot schema and the cache directory), registers a
// seeded three-relation schema over the public HTTP API, drives one
// workload against it with at most two client connections, checks every
// answer against an in-process reference built from the same points, and
// prints the metrics as one JSON object on the last line of stdout.
//
//	bash perfbench/run.sh --workload select_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it also replays a seeded sample of requests up a ladder of
// layers (core, engine, store, service, loopback, one-shard router), timing
// each rung from outside, and prints the per-layer metrics instead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"knncost/internal/service"
	"knncost/internal/store"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	knncostd string
	work     string
}

// workload is one traffic mix of the timed window.
type workload struct {
	// streams is the number of closed-loop clients.
	streams int
	// mix draws a closed-loop client's next request.
	mix func(*gen) request
	// appendRate, when positive, adds an open-loop appender posting to the
	// small relation at this many appends per second.
	appendRate float64
}

// The mixes draw by pattern position, like the request kinds themselves.
func selectMix(g *gen) request {
	if (g.n[opSelect]+g.n[opBatch])%16 == 15 {
		return g.batchReq()
	}
	return g.selectReq()
}

func joinPlanMix(g *gen) request {
	if g.n[opJoin] <= g.n[opPlan] {
		return g.joinReq()
	}
	return g.planReq()
}

func readerMix(g *gen) request {
	if 3*g.n[opPlan] < g.n[opSelect]+g.n[opBatch] {
		return g.planReq()
	}
	return selectMix(g)
}

var workloads = map[string]workload{
	"select_hot":   {streams: 2, mix: selectMix},
	"join_plan":    {streams: 2, mix: joinPlanMix},
	"ingest_mixed": {streams: 1, mix: readerMix, appendRate: 40},
}

// genOf draws one request of each read kind from a generator.
var genOf = [numOps]func(*gen) request{
	opSelect: (*gen).selectReq,
	opBatch:  (*gen).batchReq,
	opJoin:   (*gen).joinReq,
	opPlan:   (*gen).planReq,
}

// Stream identifiers: each client stream draws from its own seeded
// generator, so what a stream sends depends only on the seed.
const (
	appendStream   = 200
	checkStream    = 300
	ladderStream   = 400
	instances      = 3
	instanceStride = 7919 // seed offset between the instances of a run
	warmUp         = 500 * time.Millisecond
	settleTimeout  = 20 * time.Second
	qerrSelects    = 1000 // selects sampled for q-error, per instance
	qerrJoins      = 200  // joins sampled for q-error, per instance
)

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: select_hot, join_plan or ingest_mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer ladder and prints the per-layer metrics")
	flag.StringVar(&cfg.knncostd, "knncostd", "", "path of the knncostd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build/perfbench", "directory for cache dirs, spans and result files")
	flag.Parse()
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.knncostd == "" || cfg.seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: need -knncostd, -workload select_hot|join_plan|ingest_mixed, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// An interrupted run stops its daemon before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := run(ctx, &cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout, &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one printed figure with the sample count behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	// short marks a percentile with fewer than minBeyond samples beyond it.
	short bool
	// source says which phase measured it: the timed window, the setup,
	// the ladder or the daemon's counters.
	source string
	// layer marks a per-layer metric of the traced run.
	layer bool
}

type report struct {
	// failed counts transport errors, non-2xx statuses and wrong answers;
	// wrong counts the wrong answers alone (and a failed lifecycle check).
	attempted, failed, wrong int
	messages                 []string
	metrics                  []metric
	env                      map[string]any
	ladder                   *ladderReport // the traced run's spans, if any
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

// wrongAnswer counts a failed check that is not tied to one request.
func (r *report) wrongAnswer(msg string) {
	r.failed++
	r.wrong++
	r.messages = append(r.messages, msg)
}

// addPct adds the p-quantile of samples (in the unit they are given in).
func (r *report) addPct(name, unit string, samples []float64, p float64, source string) {
	v, ok := percentile(samples, p)
	r.add(metric{name: name, unit: unit, value: v, samples: len(samples), short: !ok, source: source})
}

type printedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) print(w io.Writer, cfg *config) error {
	envJSON, _ := json.Marshal(r.env)
	fmt.Fprintf(w, "env %s\n", envJSON)
	out := map[string]printedMetric{}
	for _, m := range r.metrics {
		note := ""
		if m.short {
			note = " (fewer than 10 samples beyond this percentile)"
		}
		fmt.Fprintf(w, "%-34s %16.6f %-6s n=%-7d %s%s\n", m.name, m.value, m.unit, m.samples, m.source, note)
		out[m.name] = printedMetric{Value: m.value, Unit: m.unit}
	}
	for _, msg := range r.messages {
		fmt.Fprintln(w, "check failed:", msg)
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]printedMetric `json:"metrics"`
	}{r.wrong == 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		return err
	}
	// Keep the whole record, sample counts and environment included, beside
	// the spans of a traced run.
	full, _ := json.MarshalIndent(map[string]any{"env": r.env, "result": json.RawMessage(line),
		"samples": sampleCounts(r.metrics), "check_failures": r.messages}, "", "  ")
	name := fmt.Sprintf("result-%s-%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.work, name), full, 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sampleCounts(ms []metric) map[string]int {
	out := map[string]int{}
	for _, m := range ms {
		out[m.name] = m.samples
	}
	return out
}

// phase collects the results of one part of a run.
type phase struct {
	name    string
	results []result
}

// latenciesOf returns the latencies of ph's successful requests of kind.
func latenciesOf(ph phase, kind opKind, unit time.Duration) []float64 {
	var out []float64
	for i := range ph.results {
		if r := &ph.results[i]; r.req.kind == kind && r.err == nil {
			out = append(out, float64(r.latency())/float64(unit))
		}
	}
	return out
}

// logf notes a phase of the run on stderr with the seconds since start.
var runStart = time.Now()

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %6.2fs: %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

// runEnv is what every instance of a run shares.
type runEnv struct {
	cfg    *config
	wl     workload
	rels   []relation
	bodies [][]byte
	ref    *store.Store
	v0     *store.View
	truth0 *truth // ground truth on the base schema, shared by the instances
	joins  *joinMemo
	hc     *http.Client
	procs  int
	rep    *report
}

func run(ctx context.Context, cfg *config) (*report, error) {
	cpu0 := cpuTimes()
	e := &runEnv{cfg: cfg, wl: workloads[cfg.workload], rels: makeSchema(cfg.seed),
		rep: &report{env: environment(cfg)}}
	e.bodies = make([][]byte, len(e.rels))
	for i, r := range e.rels {
		req := service.RegisterRequest{Name: r.name, Points: make([][2]float64, len(r.pts))}
		for j, p := range r.pts {
			req.Points[j] = [2]float64{p.X, p.Y}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		e.bodies[i] = b
	}

	logf("building the reference")
	ref, err := buildReference(ctx, e.rels, storeOptions())
	if err != nil {
		return nil, fmt.Errorf("building the reference: %w", err)
	}
	defer ref.Close(ctx)
	e.ref, e.v0 = ref, ref.View()
	e.truth0 = &truth{view: e.v0, memo: map[string]float64{}}
	e.joins = &joinMemo{m: map[joinKey]float64{}}
	e.hc = newHTTPClient()
	defer e.hc.CloseIdleConnections()
	e.procs = runtime.GOMAXPROCS(0)
	// Collect once and then rarely: the generator's own garbage collection
	// would otherwise take a varying share of the windows.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(800))

	// Every figure is measured on several daemon instances in turn, each
	// set up from scratch, and pooled: one instance's luck — where its
	// threads landed, when it collected garbage — moves the result less.
	var insts []*instance
	for i := 0; i < instances; i++ {
		inst, err := e.runInstance(ctx, i, cfg.trace && i == instances-1)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i+1, err)
		}
		insts = append(insts, inst)
	}
	rep := e.rep
	last := insts[len(insts)-1]
	// A median is the median over instances of each instance's median, so
	// that one instance's luck does not move it; tails pool the samples of
	// all instances, which one instance alone has too few of.
	perInstance := func(f func(*instance) float64) [][]float64 {
		out := make([][]float64, len(insts))
		for i, in := range insts {
			out[i] = []float64{f(in)}
		}
		return out
	}

	// End-to-end: every workload's own window produces these.
	setup, n := medianOfMedians(perInstance(func(in *instance) float64 { return in.setup }))
	rep.add(metric{name: "setup_s", unit: "s", value: setup, samples: n, source: "setup"})
	var qerrs []float64
	for _, in := range insts {
		qerrs = append(qerrs, in.qerrs...)
	}
	rep.addPct("qerror_p90", "ratio", qerrs, 0.9, "sample")
	rss, n := medianOfMedians(perInstance(func(in *instance) float64 { return in.rss }))
	rep.add(metric{name: "rss_peak_mb", unit: "MB", value: rss, samples: n, source: "daemon"})

	if cfg.trace {
		completed := 0
		for _, in := range insts {
			completed += in.completed
		}
		rps, _ := medianOfMedians(perInstance(func(in *instance) float64 { return ratio(float64(in.completed), in.seconds) }))
		rep.add(metric{name: "throughput_rps", unit: "req/s", value: rps, samples: completed, source: "window", layer: true})
		var apps []*appender
		for _, in := range insts {
			apps = append(apps, in.app)
		}
		rep.ladder.addMetrics(rep, last.vars, last.listing, apps)
		rep.requestLatencies(insts)
		rep.add(metric{name: "fail_ratio", unit: "ratio", value: ratio(float64(rep.failed), float64(rep.attempted)),
			samples: rep.attempted, source: "checks", layer: true})
	}
	rep.env["steal_pct"] = stealPct(cpu0, cpuTimes())
	rep.keep(cfg.trace)
	return rep, nil
}

// requestLatencies adds the latency of every request kind to a traced run.
// A kind the workload sends is timed in the window (appends: the appender's
// own phase); a kind it does not send is timed by the ladder's loopback
// rung, one request at a time to an otherwise idle daemon.
func (rep *report) requestLatencies(insts []*instance) {
	lat := func(kind opKind, tail bool, name string) {
		per := make([][]float64, len(insts))
		var all []float64
		source := ""
		for i, in := range insts {
			ph := in.window
			if kind == opAppend {
				ph = in.appPhase
			}
			per[i] = latenciesOf(ph, kind, time.Microsecond)
			if len(per[i]) > 0 {
				source = ph.name
			}
			all = append(all, per[i]...)
		}
		if len(all) == 0 {
			source = "ladder loopback"
			for _, ns := range durations(rep.ladder.spans, "knncostd."+kind.String()) {
				all = append(all, ns/1e3)
			}
			per = [][]float64{all}
		}
		if tail {
			rep.addPct(name, "us", all, 0.99, source)
			rep.metrics[len(rep.metrics)-1].layer = true
			return
		}
		v, _ := medianOfMedians(per)
		rep.add(metric{name: name, unit: "us", value: v, samples: len(all), source: source, layer: true})
	}
	lat(opSelect, false, "select_p50_us")
	lat(opSelect, true, "select_p99_us")
	lat(opBatch, false, "batch_p50_us")
	lat(opJoin, false, "join_p50_us")
	lat(opJoin, true, "join_p99_us")
	lat(opPlan, false, "plan_p50_us")
	lat(opPlan, true, "plan_p99_us")
	lat(opAppend, false, "append_p50_us")
	lat(opAppend, true, "append_p99_us")
	vis := make([][]float64, len(insts))
	for i, in := range insts {
		vis[i] = in.app.visibleMs
	}
	v, n := medianOfMedians(vis)
	rep.add(metric{name: "visibility_p50_ms", unit: "ms", value: v, samples: n,
		source: insts[len(insts)-1].appPhase.name, layer: true})
}

// medianOfMedians is the median over the non-empty groups of each group's
// median, with the number of samples behind it.
func medianOfMedians(groups [][]float64) (float64, int) {
	var meds []float64
	n := 0
	for _, g := range groups {
		if len(g) > 0 {
			meds = append(meds, p50(g))
			n += len(g)
		}
	}
	return p50(meds), n
}

// keep drops the metrics the run does not print: a traced run prints the
// per-layer metrics, an untraced one the end-to-end ones.
func (r *report) keep(trace bool) {
	kept := r.metrics[:0]
	for _, m := range r.metrics {
		if m.layer == trace {
			kept = append(kept, m)
		}
	}
	r.metrics = kept
}

// environment records what the figures depend on besides the code.
func environment(cfg *config) map[string]any {
	return map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"flush_policy": "fsync before every ack (-wal-sync-interval 0, the default)",
	}
}

// cpuTimes reads the machine's CPU time counters, the first line of
// /proc/stat (nil if unreadable).
func cpuTimes() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var out []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// stealPct is the share of CPU time the hypervisor gave to other guests
// between two cpuTimes readings (steal is the eighth counter). On a shared
// host it is what moves every timing of a run together, so each result
// records it.
func stealPct(before, after []float64) float64 {
	if len(before) < 8 || len(after) < 8 {
		return 0
	}
	total := 0.0
	for i := 0; i < min(len(before), len(after)); i++ {
		total += after[i] - before[i]
	}
	return 100 * ratio(after[7]-before[7], total)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	names := map[int64]string{0x01021994: "tmpfs", 0xEF53: "ext2/3/4", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x58465342: "xfs", 0x2fc12fc1: "zfs"}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// p50 is the median of samples, 0 without any (per-layer figures only).
func p50(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// varInt reads one numeric expvar; absent counters read 0.
func varInt(vars map[string]any, name string) float64 {
	if f, ok := vars[name].(float64); ok {
		return f
	}
	return 0
}
