package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cardirect"
)

// spec sizes one workload.
type spec struct {
	n         int    // generated regions
	rates     []rate // nominal open-loop mix
	snapEdits int    // a snapshot rotation after every snapEdits-th edit; 0 = none
	durable   bool   // -data -fsync always, plus one following replica
	capacity  bool   // search the highest rate meeting the read p99 limit
	reason    bool   // reasoning requests only; the world is loaded but not read
	fullNets  bool   // reasoning includes joint networks and 4–5-variable entailments
	setups    int    // set-ups per run, half before the measured phase and half after
	classes   [3][]kind
}

// The three request classes of each workload whose medians are gated, as
// class1_p50_ms to class3_p50_ms. Every listed workload must report every
// gated metric, and the world and reasoning workloads share no request, so
// the metrics are numbered and each workload names its own three.
var (
	readClasses   = [3][]kind{{opRelation, opRelationPct}, {opSelect, opGet}, {opQuery}}
	editClasses   = [3][]kind{{opRelation, opRelationPct, opSelect, opGet}, {opQuery}, {opPut, opAdd, opDelete}}
	reasonClasses = [3][]kind{{opCheck}, {opEntail}, {opCompose}}
)

// The rates and shares below are the benchmark's assumptions; no traffic
// trace of cardirectd exists to draw them from. They are chosen well under
// one daemon's capacity (capacity_rps is about 3000 reads/s).

// readRates is the read mix both read_mix and edit_mix offer: 250 reads/s
// (relation, relation with pct=1, select, region get at 3:3:2:2) and 40
// queries/s.
var readRates = []rate{{opRelation, 75}, {opRelationPct, 75}, {opSelect, 50}, {opGet, 50}, {opQuery, 40}}

// reasonRates is reason_mix's reasoning mix: 22 checks/s, 1 entailment/s
// (up to 1.5 s of closure each) and 2 compositions/s. reason_core sends
// cheaper 3-variable entailments, so it sends them and compositions as
// often as each other, 4/s.
var (
	reasonRates = []rate{{opCheck, 22}, {opEntail, 1}, {opCompose, 2}}
	coreRates   = []rate{{opCheck, 22}, {opEntail, 4}, {opCompose, 4}}
)

// snapEdits is edit_mix's assumed compaction policy: rotate the snapshot
// once 256 edits were logged since the last one, about every 8.5 s at
// 30 edits/s. A size-based policy (WAL as large as the 24 MiB snapshot)
// would rotate once in about 190000 edits, never within a run; the
// benchmark rotates often on purpose, to measure what readers and writers
// wait on during a rotation.
const snapEdits = 256

const (
	warmup       = 2 * time.Second // reads and queries before measuring
	window       = 5 * time.Second // latency quantiles are medians over windows this long
	capWindow    = 2 * time.Second // length of one capacity step
	capLimitMs   = 10.0            // read p99 limit of capacity_rps
	conns        = 2               // connections per target (= nproc here)
	checkSamples = 60              // select and query answers checked per run
)

// capRates are the offered read rates of the capacity search, in order.
var capRates = []float64{500, 1000, 1500, 2000, 3000, 4000, 6000}

// specFor sizes o's workload, with o's -n and -snap-edits overrides.
func specFor(o *options) (spec, error) {
	var s spec
	switch o.workload {
	case "read_mix":
		s = spec{n: 1000, rates: readRates, capacity: true, setups: 8, classes: readClasses}
	case "edit_mix":
		// 24 geometry edits/s and 6 add-or-delete/s beside the reads.
		s = spec{n: 500, rates: append(append([]rate(nil), readRates...), rate{opPut, 24}, rate{opAdd, 6}),
			snapEdits: snapEdits, durable: true, setups: 4, classes: editClasses}
	case "reason_core":
		// The daemon holds a world as a deployment would, though
		// reasoning never reads it; it also sets the memory and set-up
		// figures, which a bare process would leave to launch noise.
		s = spec{n: 500, rates: coreRates, reason: true, setups: 8, classes: reasonClasses}
	case "reason_mix":
		s = spec{n: 500, rates: reasonRates, reason: true, fullNets: true, setups: 8, classes: reasonClasses}
	default:
		return spec{}, fmt.Errorf("unknown workload %q (want read_mix, edit_mix, reason_core or reason_mix)", o.workload)
	}
	if o.n > 0 && s.n > 0 {
		s.n = o.n
	}
	if o.snapEdits > 0 && s.snapEdits > 0 {
		s.snapEdits = o.snapEdits
	}
	return s, nil
}

// warmRates is the warm-up mix: the nominal one without edits, which
// fills the plan cache and the connections before anything is timed.
func (s spec) warmRates() []rate {
	var out []rate
	for _, r := range s.rates {
		if r.kind.class() != "edit" {
			out = append(out, r)
		}
	}
	return out
}

// stack is the set of daemons one workload runs against.
type stack struct {
	prim, rep *daemon
	dataDir   string
}

func (s *stack) stop() {
	s.rep.stop()
	s.prim.stop()
}

// startStack launches the primary (durable when sp.durable, seeded from
// worldPath) and, for durable workloads, a replica following it, and
// returns once the replica has caught up.
func startStack(ctx context.Context, o *options, sp spec, worldPath string, pair [2]string) (*stack, error) {
	st := &stack{}
	args := []string{"-config", worldPath}
	if sp.durable {
		st.dataDir = filepath.Join(o.runDir, "data")
		os.RemoveAll(st.dataDir)
		os.RemoveAll(filepath.Join(o.runDir, "replica"))
		args = append(args, "-data", st.dataDir, "-fsync", "always")
	}
	var err error
	if st.prim, err = startDaemon(ctx, o.bin, filepath.Join(o.runDir, "primary.log"), args...); err != nil {
		return nil, err
	}
	if !sp.durable {
		return st, nil
	}
	st.rep, err = startDaemon(ctx, o.bin, filepath.Join(o.runDir, "replica.log"),
		"-role", "replica", "-follow", st.prim.base, "-replica-data", filepath.Join(o.runDir, "replica"))
	if err != nil {
		st.stop()
		return nil, err
	}
	if err := caughtUp(ctx, newTarget(st.prim.base, 1), newTarget(st.rep.base, 1), pair); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// caughtUp waits until the replica serves the primary's generation.
func caughtUp(ctx context.Context, prim, rep *target, pair [2]string) error {
	defer prim.close()
	defer rep.close()
	want, err := prim.generation(ctx, pair[0], pair[1])
	if err != nil {
		return err
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if got, err := rep.generation(ctx, pair[0], pair[1]); err == nil && got >= want {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("replica did not reach generation %d within 60s", want)
}

// outcome is what one run reports.
type outcome struct {
	m         metrics
	attempted int
	failed    int
	notes     []string
}

func (oc *outcome) fail(n int, format string, args ...any) {
	oc.failed += n
	oc.notes = append(oc.notes, fmt.Sprintf(format, args...))
}

// runE2E runs one workload end to end against real daemons, tracing off.
func runE2E(ctx context.Context, o *options) (*outcome, error) {
	sp, err := specFor(o)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(o.seed, sp.n)
	if err != nil {
		return nil, err
	}
	worldPath := filepath.Join(o.runDir, "world.xml")
	if err := os.WriteFile(worldPath, w.xml, 0o644); err != nil {
		return nil, err
	}
	pair := [2]string{w.ids[0], w.ids[1]}
	oc := &outcome{}
	// Set-ups run half before the measured phase and half after it, so a
	// change in the host's state during the run reaches both halves.
	var setup []float64
	setupOnce := func() (*stack, error) {
		t0 := time.Now()
		st, err := startStack(ctx, o, sp, worldPath, pair)
		if err == nil {
			setup = append(setup, time.Since(t0).Seconds())
		}
		return st, err
	}
	var st *stack
	for i := 0; i < sp.setups/2; i++ {
		if st != nil {
			st.stop()
		}
		if st, err = setupOnce(); err != nil {
			return nil, err
		}
	}
	defer st.stop()

	prim := newTarget(st.prim.base, conns)
	defer prim.close()
	mk := newMaker(o.seed, w, sp.fullNets)
	warm, err := mk.schedule(sp.warmRates(), warmup, 0)
	if err != nil {
		return nil, err
	}
	runPhase(ctx, httpExec(ctx, prim, warm), warm, nil, nil)

	ops, err := mk.schedule(sp.rates, time.Duration(o.seconds)*time.Second, sp.snapEdits)
	if err != nil {
		return nil, err
	}
	var probes *prober
	if sp.durable {
		g0, err := prim.generation(ctx, pair[0], pair[1])
		if err != nil {
			return nil, err
		}
		probes = startProber(ctx, newTarget(st.rep.base, conns), g0, pair, len(ops))
	}
	keep := sampler(ops, !sp.durable && !sp.reason)
	var onAck ackFunc
	if probes != nil {
		onAck = probes.ack
	}
	ph := runPhase(ctx, httpExec(ctx, prim, ops), ops, keep, onAck)
	lat := map[string]series{}
	oc.attempted, oc.failed = ph.collect(ops, lat, window)
	if oc.failed > 0 {
		oc.notes = append(oc.notes, fmt.Sprintf("%d requests failed or returned an unexpected status", oc.failed))
	}
	var visible sample
	if probes != nil {
		var lost int
		visible, lost = probes.wait()
		oc.attempted += len(visible) + lost
		if lost > 0 {
			oc.fail(lost, "%d edits never became visible on the replica", lost)
		}
	}
	rss, err := st.prim.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	classP50s(&oc.m, sp, ops, ph)
	oc.m.latency("read", lat["read"])
	oc.m.latency("query", lat["query"])
	oc.m.latency("edit", lat["edit"])
	var snaps []float64
	for _, w := range lat["snapshot"] {
		for _, s := range w {
			snaps = append(snaps, s.Seconds())
		}
	}
	if len(snaps) > 0 {
		oc.m.add("snapshot_s", median(snaps), "s", len(snaps))
	}
	oc.m.latency("repl_visible", series{visible})
	oc.m.latency("reason", lat["reason"])
	if sp.capacity {
		c, err := capacity(ctx, prim, mk, sp.rates)
		if err != nil {
			return nil, err
		}
		oc.m.add("capacity_rps", c, "req/s", len(capRates))
		closed, err := closedLoop(ctx, prim, ops)
		if err != nil {
			return nil, err
		}
		oc.m.add("read_closed_p50_ms", closed.quantile(0.5), "ms", len(closed))
	}
	oc.m.add("rss_mb", rss, "MiB", 1)
	oc.m.add("loadgen.late_p50_ms", ph.late.quantile(0.5), "ms", len(ph.late))
	oc.m.add("loadgen.late_p99_ms", ph.late.quantile(0.99), "ms", len(ph.late))
	perKind(&oc.m, ops, ph)
	if ph.backlogGrowing() {
		oc.notes = append(oc.notes, "backlog grew at the nominal rate: latencies measure queueing, not service")
	}

	// Answers are checked after the timed phase so the oracles do not
	// compete with the daemons for the CPU.
	switch {
	case sp.durable:
		oc.attempted++
		if !checkEditMix(ctx, prim, st, w, ops, ph) {
			oc.fail(1, "final relations differ between primary, replica and a from-scratch Compute-CDR")
		}
		mb, err := dirMiB(st.dataDir)
		if err != nil {
			return nil, err
		}
		oc.m.add("disk_mb", mb, "MiB", 1)
	case sp.reason:
		checkReasoning(ops, ph, oc)
	default:
		if err := checkReads(ctx, w, ops, ph, oc); err != nil {
			return nil, err
		}
	}
	oc.m.add("error_ratio", float64(oc.failed)/float64(max(1, oc.attempted)), "fraction", oc.attempted)

	st.stop()
	for len(setup) < sp.setups {
		s, err := setupOnce()
		if err != nil {
			return nil, err
		}
		s.stop()
	}
	oc.m.add("setup_s", median(setup), "s", len(setup))
	return oc, nil
}

// classP50s reports the median latency of each of sp's gated classes as
// class1_p50_ms, class2_p50_ms and class3_p50_ms.
func classP50s(m *metrics, sp spec, ops []op, ph *phase) {
	for c, kinds := range sp.classes {
		var s series
		for i := range ops {
			if r := &ph.res[i]; r.ok(ops[i].kind) && slices.Contains(kinds, ops[i].kind) {
				s.add(int(r.due/window), r.latency())
			}
		}
		if s.count() > 0 {
			m.add(fmt.Sprintf("class%d_p50_ms", c+1), s.quantile(0.5), "ms", s.count())
		}
	}
}

// sampler keeps the bodies the checks read: every reasoning answer, and,
// when reads is set (read_mix), every relation and region answer plus an
// evenly spread sample of selections and queries.
func sampler(ops []op, reads bool) func(int) bool {
	count := map[kind]int{}
	for i := range ops {
		count[ops[i].kind]++
	}
	seen := map[kind]int{}
	keep := make([]bool, len(ops))
	for i := range ops {
		k := ops[i].kind
		switch {
		case k.class() == "reason":
			keep[i] = true
		case !reads, k.class() != "read" && k.class() != "query":
		case k == opSelect || k == opQuery:
			stride := max(1, count[k]/checkSamples)
			keep[i] = seen[k]%stride == 0
		default:
			keep[i] = true
		}
		seen[k]++
	}
	return func(i int) bool { return keep[i] }
}

// checkReads verifies the kept read answers against the oracles.
func checkReads(ctx context.Context, w *world, ops []op, ph *phase, oc *outcome) error {
	c, err := newChecker(w)
	if err != nil {
		return err
	}
	wrong := map[kind]int{}
	for i := range ops {
		r := &ph.res[i]
		if r.body == nil || !r.ok(ops[i].kind) {
			continue
		}
		ok, err := c.check(ctx, &ops[i], r.body)
		if err != nil || !ok {
			wrong[ops[i].kind]++
		}
	}
	for k, n := range wrong {
		oc.fail(n, "%d %v answers disagree with the oracle", n, k)
	}
	return nil
}

// perKind reports latencies per kind, and per template for queries, for
// reading the classes apart.
func perKind(m *metrics, ops []op, ph *phase) {
	lat := map[string]series{}
	var names []string
	for i := range ops {
		if r := &ph.res[i]; r.ok(ops[i].kind) {
			name := "op." + ops[i].kind.String()
			if ops[i].kind == opQuery {
				name += fmt.Sprintf(".t%d", ops[i].tmpl)
			}
			s, seen := lat[name]
			if !seen {
				names = append(names, name)
			}
			s.add(int(r.due/window), r.latency())
			lat[name] = s
		}
	}
	sort.Strings(names)
	for _, name := range names {
		m.latency(name, lat[name])
	}
}

// checkEditMix drains replication and reports whether the primary's and
// the replica's /v1/relations equal each other and a from-scratch
// Compute-CDR of the world the benchmark wrote.
func checkEditMix(ctx context.Context, prim *target, st *stack, w *world, ops []op, ph *phase) bool {
	model := make(map[string]cardirect.Region, len(w.geom))
	for id, g := range w.geom {
		model[id] = g
	}
	for i := range ops {
		o := &ops[i]
		if o.edit < 0 || !ph.res[i].ok(o.kind) {
			continue
		}
		switch o.kind {
		case opPut, opAdd:
			model[o.a] = o.geom
		case opDelete:
			delete(model, o.a)
		}
	}
	rep := newTarget(st.rep.base, 1)
	defer rep.close()
	if err := caughtUp(ctx, prim, rep, [2]string{w.ids[0], w.ids[1]}); err != nil {
		return false
	}
	status, pb, _, err := prim.do(ctx, "GET", "/v1/relations", nil, nil)
	if err != nil || status != http.StatusOK {
		return false
	}
	status, rb, _, err := rep.do(ctx, "GET", "/v1/relations", nil, nil)
	if err != nil || status != http.StatusOK || string(pb) != string(rb) {
		return false
	}
	ok, err := checkRelations(pb, model)
	return err == nil && ok
}

// checkReasoning re-derives every witness and set answer of reason_mix.
func checkReasoning(ops []op, ph *phase, oc *outcome) {
	sent, bad := map[string]int{}, map[string]int{}
	invalid := 0
	for i := range ops {
		r := &ph.res[i]
		if !r.ok(ops[i].kind) {
			continue
		}
		label := ops[i].net.label
		sent[label]++
		ok, witnessBad, err := checkReason(ops[i].net, r.body)
		if err == nil && ok {
			continue
		}
		if witnessBad {
			invalid++
			label += " (invalid witness)"
		}
		bad[label]++
	}
	labels := make([]string, 0, len(bad))
	for label := range bad {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		n := bad[label]
		oc.fail(n, "%d of %d answers wrong: %s", n, sent[strings.TrimSuffix(label, " (invalid witness)")], label)
	}
	oc.m.add("reason.witness_invalid", float64(invalid), "count", len(ops))
}

// prober measures replica visibility: after each acknowledged edit it
// reads the replica with Cardirect-Min-Generation set to the generation
// that edit produced, until the replica stops answering 503.
type prober struct {
	acks chan probeReq
	mu   sync.Mutex
	vis  sample
	lost int
	wg   sync.WaitGroup
}

type probeReq struct {
	gen uint64
	at  time.Time
}

func startProber(ctx context.Context, rep *target, g0 uint64, pair [2]string, n int) *prober {
	// Sized to the number of sends (at most one per op), so acks never
	// wait on the probes.
	p := &prober{acks: make(chan probeReq, n)}
	path := "/v1/relation?primary=" + pair[0] + "&reference=" + pair[1]
	for i := 0; i < conns; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for a := range p.acks {
				hdr := map[string]string{"Cardirect-Min-Generation": strconv.FormatUint(g0+a.gen, 10)}
				ok := false
				for deadline := a.at.Add(10 * time.Second); time.Now().Before(deadline); {
					status, _, _, err := rep.do(ctx, "GET", path, nil, hdr)
					if err == nil && status == http.StatusOK {
						ok = true
						break
					}
					if err != nil || status != http.StatusServiceUnavailable {
						break
					}
					time.Sleep(200 * time.Microsecond)
				}
				p.mu.Lock()
				if ok {
					p.vis = append(p.vis, time.Since(a.at))
				} else {
					p.lost++
				}
				p.mu.Unlock()
			}
		}()
	}
	return p
}

func (p *prober) ack(acked int, at time.Time) {
	p.acks <- probeReq{gen: uint64(acked), at: at}
}

// wait finishes the probes and returns the visibility times and the
// number of edits never seen on the replica.
func (p *prober) wait() (sample, int) {
	close(p.acks)
	p.wg.Wait()
	return p.vis, p.lost
}

// capacity offers read-only traffic at increasing rates and returns the
// highest rate whose read p99 stays within capLimitMs with no growing
// backlog and no failures.
func capacity(ctx context.Context, t *target, mk *maker, rates []rate) (float64, error) {
	var reads []rate
	total := 0.0
	for _, r := range rates {
		if r.kind.class() == "read" {
			reads = append(reads, r)
			total += r.hz
		}
	}
	best := 0.0
	for _, hz := range capRates {
		scaled := make([]rate, len(reads))
		for i, r := range reads {
			scaled[i] = rate{r.kind, r.hz * hz / total}
		}
		ops, err := mk.schedule(scaled, capWindow, 0)
		if err != nil {
			return 0, err
		}
		ph := runPhase(ctx, httpExec(ctx, t, ops), ops, nil, nil)
		lat := map[string]series{}
		if _, failed := ph.collect(ops, lat, capWindow); failed > 0 || ph.backlogGrowing() ||
			lat["read"].quantile(0.99) > capLimitMs {
			break
		}
		best = hz
	}
	return best, nil
}

// closedLoop sends up to 1000 of the schedule's relation reads one after
// another, each as soon as the last has returned, and times each round
// trip: the read path without the idle gaps of an open-loop schedule, in
// which both processes fall asleep between requests.
func closedLoop(ctx context.Context, t *target, ops []op) (sample, error) {
	var s sample
	for i := range ops {
		if k := ops[i].kind; k != opRelation && k != opRelationPct {
			continue
		}
		start := time.Now()
		status, _, _, err := t.do(ctx, "GET", ops[i].path, nil, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("closed-loop read %s: status %d", ops[i].path, status)
		}
		if s = append(s, time.Since(start)); len(s) == 1000 {
			break
		}
	}
	return s, nil
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
