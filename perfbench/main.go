// Command perfbench is the neurotest benchmark: one closed-loop client that
// runs paper-scale test campaigns of one shape back to back through the
// library's public calls, checks every result, and prints end-to-end or
// per-layer metrics.
//
//	bash perfbench/run.sh --workload grade-synapse --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 records a span around every layer call, runs the
// untimed probes, and reports the per-layer metrics. README.md lists the
// workloads, their metrics and the layer each metric attributes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neurotest/internal/faultsim"
)

const (
	// setupReps is how many times a run sets its workload up, spread
	// across the timed phase; setup_s is the median of the least-stolen.
	setupReps = 15
	// minOps is the least number of measured ops in a run, so that p90
	// has at least ten ops beyond it.
	minOps = 100
	// quietSteal is the most CPU time, as a share, the hypervisor may
	// steal in a round for the round to count as quiet.
	quietSteal = 0.02
	// wallFactor bounds the timed phase's wall time, as a multiple of
	// --seconds, when quiet rounds are scarce.
	wallFactor = 2.5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed op seconds to measure")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		must(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"), "flags")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		must(fmt.Errorf("unknown workload %q", *name), "flags")
	}
	// The library sizes its worker pools by GOMAXPROCS; set it to the CPUs
	// the process may use rather than rely on the runtime's default.
	runtime.GOMAXPROCS(runtime.NumCPU())
	res := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	line, err := json.Marshal(res)
	must(err, "encoding result")
	fmt.Println(string(line))
}

// must ends the run, printing no result, when err is not nil.
func must(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		os.Exit(1)
	}
}

// record is the measurement of one timed op.
type record struct {
	lat, cpu time.Duration
	traced   bool
	// rss is the resident set after the op, in MB.
	rss float64
}

// round is a run of consecutive timed ops: recs[lo:hi], with the share of
// CPU time the hypervisor stole while they ran.
type round struct {
	lo, hi int
	steal  float64
}

// setup is the measurement of one set-up: its wall time, and the steal
// share over the set-up and the round after it. A set-up alone is too short
// for the clock ticks of /proc/stat.
type setup struct {
	secs, steal float64
	steal0      cpuTicks
}

func bench(w *workload, seed uint64, budget time.Duration, trace bool) result {
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var p *plan
	var setups []setup
	// Each set-up replaces the previous one: the old plan is dropped and
	// collected first, so the heap holds one set-up at a time.
	rebuild := func() {
		p = nil
		runtime.GC()
		tr.begin("setup")
		s0 := hostSteal()
		t0 := time.Now()
		var err error
		p, err = w.setup(seed, tr)
		setups = append(setups, setup{secs: time.Since(t0).Seconds(), steal0: s0})
		tr.end()
		must(err, "setup")
	}
	rebuild()

	attempted, failed := 0, 0
	fail := func(i int, err error) {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
	}
	next := 0
	// One untimed warm-up round: a fixed number of ops, so that the timed
	// ops, and with them the census, do not depend on the machine's speed.
	for ; next < w.roundOps; next++ {
		o := p.op(next)
		err := o.run(nil)
		if err == nil {
			err = o.check()
		}
		attempted++
		if err != nil {
			fail(next, err)
		}
	}
	setups[0].steal = hostSteal().since(setups[0].steal0)

	var recs []record
	var rounds []round
	census := map[string]float64{}
	// Memo hits and misses race between pool workers: only their sum, in
	// the census, is exact. The hits give the ratio.
	memoHits := 0.0
	probeCounts := map[string]float64{}
	var rt runtimeDelta
	var timed, quietTime, checking, probing time.Duration
	quietOps := 0
	steal0 := hostSteal()
	start := time.Now()
	wallBound := time.Duration(wallFactor * float64(budget))
	// progress is the share of the timed phase done: of the quiet op time
	// or of the wall-time bound, whichever is further.
	progress := func() float64 {
		return max(float64(quietTime)/float64(budget), float64(time.Since(start))/float64(wallBound))
	}
	// Rounds run until the quiet ones hold --seconds of op time and
	// minOps ops, or until the wall-time bound, and until every set-up has
	// run. A traced run needs an untraced round too, for the overhead.
	done := func() bool {
		measured := quietTime >= budget && quietOps >= minOps
		return len(setups) == setupReps && (measured || time.Since(start) >= wallBound)
	}
	for r := 0; r == 0 || (trace && r < 2) || !done(); r++ {
		// Set-ups after the first are spread evenly across the timed
		// phase, at most one between two rounds.
		setupBefore := len(setups) < setupReps && progress() >= float64(len(setups))/setupReps
		if setupBefore {
			rebuild()
		}
		// In a traced run every other round runs untraced, so the tracing
		// overhead is measured on the same ops in the same process.
		traced := trace && r%2 == 0
		rd := round{lo: len(recs)}
		var roundTime time.Duration
		rs0 := hostSteal()
		for k := 0; k < w.roundOps; k, next = k+1, next+1 {
			o := p.op(next)
			var t *tracer
			if traced {
				t = tr
			}
			var snap faultsim.Stats
			if r == 0 {
				snap = faultsim.Snapshot()
			}
			var rt0 [4]metrics.Sample
			if traced {
				rt0 = readRuntime()
			}
			t.begin("op")
			cpu0 := cpuTime()
			t0 := time.Now()
			err := o.run(t)
			lat := time.Since(t0)
			cpu := cpuTime() - cpu0
			t.end()
			rss := residentMB()
			if traced {
				rt.add(rt0, readRuntime())
			}
			if r == 0 {
				after := faultsim.Snapshot()
				addCensus(census, after, snap, o.counts)
				memoHits += float64(after.MemoHits - snap.MemoHits)
			}
			t1 := time.Now()
			if err == nil {
				err = o.check()
			}
			checking += time.Since(t1)
			if err == nil && traced && r == 0 {
				t1 = time.Now()
				t.begin("probe")
				err = o.probe(t, probeCounts)
				t.end()
				probing += time.Since(t1)
			}
			attempted++
			if err != nil {
				fail(next, err)
			}
			recs = append(recs, record{lat: lat, cpu: cpu, traced: traced, rss: rss})
			roundTime += lat
		}
		rd.hi, rd.steal = len(recs), hostSteal().since(rs0)
		rounds = append(rounds, rd)
		if setupBefore {
			s := &setups[len(setups)-1]
			s.steal = hostSteal().since(s.steal0)
		}
		timed += roundTime
		if rd.steal <= quietSteal {
			quietTime += roundTime
			quietOps += rd.hi - rd.lo
		}
	}
	steal := hostSteal().since(steal0)

	fmt.Printf("run: workload %s seed %d GOMAXPROCS %d rounds %d of %d ops, steal %.1f%%\n",
		w.name, seed, runtime.GOMAXPROCS(0), len(rounds), w.roundOps, 100*steal)
	setupTime := 0.0
	for _, s := range setups {
		setupTime += s.secs
	}
	fmt.Printf("phases: setup %.3fs x%d, warm-up %d ops, timed ops %.3fs, checks %.3fs, probes %.3fs\n",
		setupTime, len(setups), w.roundOps, timed.Seconds(), checking.Seconds(), probing.Seconds())
	printCensus(census, w.roundOps)
	var m map[string]metric
	if !trace {
		m = endToEnd(recs, rounds, budget, setups)
	} else {
		m = perLayer(tr, recs, census, memoHits, w.roundOps, p.counts, probeCounts, rt)
	}
	fmt.Printf("failed %d of %d ops\n", failed, attempted)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// addCensus adds one op's deterministic counts: the faultsim counters it
// moved and the outcome counts it reported.
func addCensus(c map[string]float64, after, before faultsim.Stats, counts map[string]float64) {
	c["faultsim.faults"] += float64(after.FaultsSimulated - before.FaultsSimulated)
	c["faultsim.memo_lookups"] += float64(after.MemoHits + after.MemoMisses - before.MemoHits - before.MemoMisses)
	c["faultsim.golden_builds"] += float64(after.GoldenBuilds - before.GoldenBuilds)
	for k, v := range counts {
		c[k] += v
	}
}

// printCensus prints the first round's deterministic counts: two runs with
// the same seed must print the same line.
func printCensus(c map[string]float64, ops int) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "census ops=%d", ops)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, strconv.FormatFloat(c[k], 'f', -1, 64))
	}
	fmt.Println(b.String())
}

// endToEnd reports the metrics of the least-stolen rounds that together
// hold budget of op time and minOps ops: all rounds when the host was
// quiet. Rates, CPU and resident set are medians over those rounds, so a
// burst of load the steal share does not show moves one round rather than
// the run; latency percentiles are over their ops. setup_s is the median
// of the quiet set-ups, or of the setupReps/2+1 least-stolen when fewer
// are quiet.
func endToEnd(recs []record, rounds []round, budget time.Duration, setups []setup) map[string]metric {
	bySteal := append([]round(nil), rounds...)
	sort.SliceStable(bySteal, func(i, j int) bool { return bySteal[i].steal < bySteal[j].steal })
	var opsRate, cpuPerOp, rss, lats []float64
	var measured time.Duration
	maxSteal := 0.0
	for _, rd := range bySteal {
		if measured >= budget && len(lats) >= minOps {
			break
		}
		var lat, cpu time.Duration
		peak := 0.0
		for _, rec := range recs[rd.lo:rd.hi] {
			lat += rec.lat
			cpu += rec.cpu
			peak = max(peak, rec.rss)
			lats = append(lats, ms(rec.lat))
		}
		n := float64(rd.hi - rd.lo)
		opsRate = append(opsRate, n/lat.Seconds())
		cpuPerOp = append(cpuPerOp, ms(cpu)/n)
		rss = append(rss, peak)
		measured += lat
		maxSteal = rd.steal
	}
	sort.Float64s(lats)
	fmt.Printf("measured %d of %d rounds (steal at most %.1f%%), %d ops; VmHWM %.1f MB\n",
		len(opsRate), len(rounds), 100*maxSteal, len(lats), vmHWM())

	sort.SliceStable(setups, func(i, j int) bool { return setups[i].steal < setups[j].steal })
	var setupSecs []float64
	for _, s := range setups {
		if len(setupSecs) > len(setups)/2 && s.steal > quietSteal {
			break
		}
		setupSecs = append(setupSecs, s.secs)
	}
	var b strings.Builder
	for _, s := range setups {
		fmt.Fprintf(&b, " %.4fs/%.1f%%", s.secs, 100*s.steal)
	}
	fmt.Printf("measured %d of %d set-ups (steal at most %.1f%%); by steal:%s\n",
		len(setupSecs), len(setups), 100*setups[len(setupSecs)-1].steal, b.String())
	return map[string]metric{
		"ops_per_s":     {median(opsRate), "1/s"},
		"op_p50_ms":     {quantile(lats, 0.5), "ms"},
		"op_p90_ms":     {quantile(lats, 0.9), "ms"},
		"cpu_ms_per_op": {median(cpuPerOp), "ms"},
		"peak_rss_mb":   {median(rss), "MB"},
		"setup_s":       {median(setupSecs), "s"},
	}
}

func perLayer(tr *tracer, recs []record, census map[string]float64, memoHits float64, censusOps int, setupCounts, probe map[string]float64, rt runtimeDelta) map[string]metric {
	var tracedLat, untracedLat time.Duration
	traced, untraced := 0, 0
	for _, r := range recs {
		if r.traced {
			tracedLat += r.lat
			traced++
		} else {
			untracedLat += r.lat
			untraced++
		}
	}
	ops := tr.aggregate("op")
	probes := tr.aggregate("probe")
	all := tr.aggregate("")
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	perOp := func(k string) float64 { return census[k] / float64(censusOps) }
	// core.items comes from the ops where they generate, else from set-up.
	coreItems := setupCounts["core.items"]
	if _, ok := census["core.items"]; ok {
		coreItems = perOp("core.items")
	}
	probeCampaign := probes.meanMs("faultsim.pack") + probes.meanMs("faultsim.kernel")
	tracedMean := ratio(ms(tracedLat), float64(traced))
	untracedMean := ratio(ms(untracedLat), float64(untraced))
	m := map[string]metric{
		"core.generate_ms":         {all.meanMs("core.generate"), "ms"},
		"core.items":               {coreItems, "count"},
		"fault.universe_ms":        {ops.meanMs("fault.universe"), "ms"},
		"fault.faults":             {perOp("fault.faults"), "count"},
		"tester.new_ate_ms":        {ops.meanMs("tester.new_ate"), "ms"},
		"faultsim.golden_ms":       {ops.meanMs("faultsim.golden"), "ms"},
		"faultsim.pack_ms":         {probes.meanMs("faultsim.pack"), "ms"},
		"faultsim.kernel_ms":       {probes.meanMs("faultsim.kernel"), "ms"},
		"faultsim.groups":          {ratio(probe["faultsim.groups"], float64(censusOps)), "count"},
		"faultsim.lane_occupancy":  {ratio(probe["faultsim.probe_faults"], 64*probe["faultsim.groups"]), "ratio"},
		"tester.coverage_ms":       {ops.meanMs("tester.coverage"), "ms"},
		"tester.pool_speedup":      {ratio(probeCampaign, ops.meanMs("tester.coverage")), "ratio"},
		"faultsim.faults":          {perOp("faultsim.faults"), "count"},
		"faultsim.memo_lookups":    {perOp("faultsim.memo_lookups"), "count"},
		"faultsim.memo_hit_ratio":  {ratio(memoHits, census["faultsim.memo_lookups"]), "ratio"},
		"faultsim.golden_builds":   {perOp("faultsim.golden_builds"), "count"},
		"faultsim.scalar_ms":       {probes.meanMs("faultsim.scalar"), "ms"},
		"faultsim.scalar_calls":    {ratio(probe["faultsim.scalar_calls"], probe["faultsim.scalar_probes"]), "count"},
		"diagnose.build_ms":        {ops.meanMs("diagnose.build"), "ms"},
		"diagnose.classes":         {perOp("diagnose.classes"), "count"},
		"compact.compact_ms":       {ops.meanMs("compact.compact"), "ms"},
		"compact.items_removed":    {perOp("compact.items_removed"), "count"},
		"tester.escape_ms":         {ops.meanMs("tester.escape"), "ms"},
		"tester.overkill_ms":       {ops.meanMs("tester.overkill"), "ms"},
		"tester.escape_hits":       {census["tester.escape_hits"], "count"},
		"tester.overkill_hits":     {census["tester.overkill_hits"], "count"},
		"variation.sample_ms":      {probes.meanMs("variation.sample"), "ms"},
		"variation.apply_ms":       {probes.meanMs("variation.apply"), "ms"},
		"snn.new_sim_us":           {1000 * probes.meanMs("snn.new_sim"), "us"},
		"snn.run_us":               {1000 * probes.meanMs("snn.run"), "us"},
		"go.alloc_mb_per_op":       {rt.allocBytes / 1e6 / float64(traced), "MB"},
		"go.gc_cycles_per_op":      {rt.gcCycles / float64(traced), "count"},
		"go.gc_cpu_share":          {ratio(rt.gcCPU, rt.totalCPU), "ratio"},
		"trace.unattributed_share": {ratio(ms(ops.self["op"]), ms(tracedLat)), "ratio"},
		"trace.overhead_pct":       {100 * (ratio(tracedMean, untracedMean) - 1), "%"},
	}
	for _, l := range []string{"core", "fault", "faultsim", "tester", "diagnose", "compact"} {
		m["self."+l+"_ms"] = metric{ratio(ms(ops.self[l]), float64(traced)), "ms"}
	}
	return m
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted between its closest ranks.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmHWM reads the process's peak resident set over its life, in MB.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// residentMB reads the process's current resident set, in MB.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTicks is the machine-wide CPU time from /proc/stat: the steal column
// and the total of all columns, in clock ticks. Time the hypervisor gives
// to other guests shows as steal and slows every op.
type cpuTicks struct{ steal, total float64 }

func hostSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return cpuTicks{}
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the steal share of the CPU time elapsed since t0.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return (t.steal - t0.steal) / (t.total - t0.total)
}

var runtimeNames = [4]string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]metrics.Sample {
	var s [4]metrics.Sample
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return s
}

// runtimeDelta sums Go runtime counters over the traced ops.
type runtimeDelta struct {
	allocBytes, gcCycles, gcCPU, totalCPU float64
}

func (d *runtimeDelta) add(before, after [4]metrics.Sample) {
	d.allocBytes += float64(after[0].Value.Uint64() - before[0].Value.Uint64())
	d.gcCycles += float64(after[1].Value.Uint64() - before[1].Value.Uint64())
	d.gcCPU += after[2].Value.Float64() - before[2].Value.Float64()
	d.totalCPU += after[3].Value.Float64() - before[3].Value.Float64()
}
