package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"cardirect"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// end sets a span's end to now.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// timed runs f and records it as a span.
func (t *tracer) timed(op, parent int, name string, f func() error) error {
	start := time.Now()
	err := f()
	t.add(op, parent, name, start, time.Now())
	return err
}

// bodyTimer marks the first and last read of a request body: json
// decoding reads the body as it scans, so the interval is the decode.
type bodyTimer struct {
	r           io.Reader
	first, last time.Time
}

func (b *bodyTimer) Read(p []byte) (int, error) {
	if b.first.IsZero() {
		b.first = time.Now()
	}
	n, err := b.r.Read(p)
	b.last = time.Now()
	return n, err
}

// encodeTimer marks the response's header write and last body write: the
// handlers write the header and then stream the JSON envelope, so the
// interval is the encode.
type encodeTimer struct {
	*httptest.ResponseRecorder
	first, last time.Time
}

func (w *encodeTimer) WriteHeader(code int) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	w.ResponseRecorder.WriteHeader(code)
	w.last = time.Now()
}

func (w *encodeTimer) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	n, err := w.ResponseRecorder.Write(p)
	w.last = time.Now()
	return n, err
}

// tracedEditor records the serve.Options.Editor hook: the whole edit path
// below the handler (replication log, WAL, tracked store). Edits run one
// at a time, so the enclosing op is a field.
type tracedEditor struct {
	next       serve.Editor
	t          *tracer
	op, parent int
	enabled    bool
}

func (e *tracedEditor) wrap(name string, f func() error) error {
	if !e.enabled {
		return f()
	}
	return e.t.timed(e.op, e.parent, name, f)
}

func (e *tracedEditor) AddRegion(id, name, color string, g cardirect.Region) error {
	return e.wrap("serve.editor", func() error { return e.next.AddRegion(id, name, color, g) })
}
func (e *tracedEditor) RemoveRegion(id string) error {
	return e.wrap("serve.editor", func() error { return e.next.RemoveRegion(id) })
}
func (e *tracedEditor) RenameRegion(oldID, newID string) error {
	return e.wrap("serve.editor", func() error { return e.next.RenameRegion(oldID, newID) })
}
func (e *tracedEditor) SetRegionGeometry(id string, g cardirect.Region) error {
	return e.wrap("serve.editor", func() error { return e.next.SetRegionGeometry(id, g) })
}
func (e *tracedEditor) BulkAddRegions(regions []cardirect.BulkRegion) error {
	return e.wrap("serve.editor", func() error { return e.next.BulkAddRegions(regions) })
}

// inproc is the traced run's stack, built from the public constructors the
// daemon uses, plus shadow copies of the layers serve does not expose,
// which receive the same edits so their public functions can be timed.
type inproc struct {
	tr      *cardirect.Tracked
	ps      *cardirect.PersistStore
	h       http.Handler
	ed      *tracedEditor
	hs      *httptest.Server
	rep     *replica.Replica
	stopRep context.CancelFunc
	repDone chan struct{}

	shadowTr    *cardirect.Tracked
	shadowStore *cardirect.RelationStore
	shadowIdx   *cardirect.LiveIndex
	sideWAL     *wal.Writer

	setup map[string]time.Duration
}

func (s *inproc) close() {
	if s.stopRep != nil {
		s.stopRep()
		<-s.repDone
		s.rep.Close()
	}
	if s.hs != nil {
		s.hs.Close()
	}
	if s.sideWAL != nil {
		s.sideWAL.Close()
	}
	if s.ps != nil {
		s.ps.Close()
	}
	if s.ps == nil {
		s.tr.Close()
	}
	if s.shadowTr != nil {
		s.shadowTr.Close()
	}
}

func namedRegions(w *world) []cardirect.NamedRegion {
	out := make([]cardirect.NamedRegion, 0, len(w.ids))
	for _, id := range w.ids {
		out = append(out, cardirect.NamedRegion{Name: id, Region: w.geom[id]})
	}
	return out
}

// buildInproc assembles the stack for sp. The initial all-pairs build is
// timed on its own first, then released, so its peak memory does not add
// to the stack's.
func buildInproc(ctx context.Context, o *options, sp spec, w *world, t *tracer) (*inproc, error) {
	s := &inproc{setup: map[string]time.Duration{}}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	start := time.Now()
	st, err := cardirect.NewRelationStore(namedRegions(w), cardirect.StoreOptions{Pct: true})
	if err != nil {
		return nil, err
	}
	s.setup["core.batch"] = time.Since(start)
	stats := st.Stats()
	n := float64(len(w.ids))
	s.setup["prune"] = time.Duration(float64(stats.PruneSingleTile+stats.PruneBand+stats.PrunePctTile+stats.PrunePctPoly) /
		(2 * n * (n - 1)) * 1e9)
	st = nil
	runtime.GC()
	debug.FreeOSMemory()
	img, err := cardirect.ParseImage(w.xml)
	if err != nil {
		return nil, err
	}
	var under serve.Editor
	if sp.durable {
		start := time.Now()
		ps, err := cardirect.OpenPersist(filepath.Join(o.runDir, "data"), img, cardirect.PersistOptions{
			Sync: cardirect.WALOptions{Policy: cardirect.SyncAlways}, Pct: true, Logger: logger})
		if err != nil {
			return nil, err
		}
		s.setup["persist.seed"] = time.Since(start)
		s.ps, s.tr, under = ps, ps.Tracked(), ps
	} else {
		tr, err := cardirect.Track(img, cardirect.StoreOptions{Pct: true})
		if err != nil {
			return nil, err
		}
		s.tr, under = tr, tr
	}
	prim := replica.NewPrimary(s.tr, under, replica.PrimaryOptions{Pct: true})
	s.ed = &tracedEditor{next: prim, t: t}
	s.h = serve.New(s.tr, serve.Options{Logger: logger, Persist: s.ps, Repl: prim, Editor: s.ed}).Handler()
	if !sp.durable {
		return s, nil
	}

	s.hs = httptest.NewServer(s.h)
	start = time.Now()
	rctx, cancel := context.WithCancel(ctx)
	rep, err := replica.Open(rctx, replica.Options{Primary: s.hs.URL,
		CacheDir: filepath.Join(o.runDir, "replica"), Logger: logger})
	if err != nil {
		cancel()
		return nil, err
	}
	s.rep, s.stopRep, s.repDone = rep, cancel, make(chan struct{})
	go func() {
		defer close(s.repDone)
		rep.Run(rctx)
	}()
	for rep.Tracked().Store().Generation() < s.tr.Store().Generation() || rep.Lag() > 0 {
		time.Sleep(time.Millisecond)
	}
	s.setup["replica.bootstrap"] = time.Since(start)

	shadowImg, err := cardirect.ParseImage(w.xml)
	if err != nil {
		return nil, err
	}
	if s.shadowTr, err = cardirect.Track(shadowImg, cardirect.StoreOptions{Pct: true}); err != nil {
		return nil, err
	}
	if s.shadowStore, err = cardirect.NewRelationStore(namedRegions(w), cardirect.StoreOptions{Pct: true}); err != nil {
		return nil, err
	}
	if s.shadowIdx, err = cardirect.NewLiveIndex(namedRegions(w)); err != nil {
		return nil, err
	}
	s.sideWAL, err = wal.Create(filepath.Join(o.runDir, "side.wal"), wal.Options{Policy: wal.SyncNever})
	return s, err
}

// opStats accumulates per-op values read at layer boundaries.
type opStats struct {
	mu            sync.Mutex
	cacheHits     int
	queries       int
	candidates    int
	bindings      int
	selCandidates int
	selMatches    int
	planned       map[int]bool // queries the server planned (cache miss or replan)
	checks        int
	fastpath      int
	reasonNs      map[string][]float64
	snapshotMs    []float64
	snapshotMB    []float64
	lagMax        uint64
	sideErrs      map[string]int // failed side calls by span name
}

// tracedExec performs op i in process: the handler call with decode and
// encode spans and the editor hook, then, when traced, the side calls into
// the layers serve does not expose, on the same inputs. The handler call's
// own duration goes to handler[i] when handler is not nil.
func tracedExec(ctx context.Context, s *inproc, t *tracer, ops []op, st *opStats, traced bool, handler []time.Duration) execFunc {
	return func(i int) (int, []byte, error) {
		o := &ops[i]
		body := &bodyTimer{r: bytes.NewReader(o.body)}
		req := httptest.NewRequest(o.method, o.path, body).WithContext(ctx)
		rec := &encodeTimer{ResponseRecorder: httptest.NewRecorder()}
		var root, hspan int
		var probe sync.WaitGroup
		if traced {
			now := time.Now()
			root = t.add(i, 0, "op."+o.kind.String(), now, now) // both ends fixed below
			hspan = t.add(i, root, "serve.handler", now, now)
			if o.kind == opGet || o.kind == opSelect || o.kind == opQuery {
				// These handlers read the document under the tracked
				// store's read lock. A probe takes the same lock at the
				// same moment, so its wait is the one the handler meets,
				// a snapshot rotation's included.
				probe.Add(1)
				go func() {
					defer probe.Done()
					called := time.Now()
					s.tr.View(func(*cardirect.Image) error {
						t.add(i, root, "config.view_wait", called, time.Now())
						return nil
					})
				}()
			}
		}
		if o.edit >= 0 {
			s.ed.op, s.ed.parent, s.ed.enabled = i, hspan, traced
		}
		start := time.Now()
		s.h.ServeHTTP(rec, req)
		if handler != nil {
			handler[i] = time.Since(start)
		}
		status, out := rec.Code, rec.Body.Bytes()
		if !traced {
			return status, out, nil
		}
		t.end(hspan)
		probe.Wait()
		if !body.first.IsZero() {
			t.add(i, hspan, "serve.decode", body.first, body.last)
		}
		if !rec.first.IsZero() {
			t.add(i, hspan, "serve.encode", rec.first, rec.last)
		}
		if status == expectStatus(o.kind) {
			c := side{t: t, st: st, op: i, root: root}
			c.calls(ctx, s, o)
			readCounters(o, i, out, st)
		}
		t.end(root)
		return status, out, nil
	}
}

// side records the side calls of one traced op as children of its root.
type side struct {
	t        *tracer
	st       *opStats
	op, root int
}

// time records f as a span; a failing call is counted, since its timing
// no longer measures the work the handler did.
func (c side) time(name string, f func() error) {
	c.fail(name, c.t.timed(c.op, c.root, name, f))
}

func (c side) fail(name string, err error) {
	if err != nil {
		c.st.mu.Lock()
		c.st.sideErrs[name]++
		c.st.mu.Unlock()
	}
}

// calls times each layer's public function on op o's inputs.
func (c side) calls(ctx context.Context, s *inproc, o *op) {
	switch o.kind {
	case opRelation, opRelationPct:
		c.time("core.lookup", func() error {
			if _, err := s.tr.Store().Relation(o.a, o.b); err != nil || o.kind == opRelation {
				return err
			}
			_, err := s.tr.Store().Percent(o.a, o.b)
			return err
		})
	case opSelect, opQuery:
		c.fail("config.view", s.tr.View(func(img *cardirect.Image) error {
			return c.inView(ctx, s, o, img)
		}))
	case opPut, opAdd, opDelete:
		c.edit(s, o)
	case opEntail:
		c.time("reason.closure", func() error {
			n := cardirect.NewNetwork()
			for _, v := range o.net.vars {
				n.AddVariable(v)
			}
			for _, d := range o.net.dir {
				if err := n.Constrain(d.x, d.y, d.set); err != nil {
					return err
				}
			}
			_, err := n.Entail(o.net.x, o.net.y)
			return err
		})
	}
}

// inView times the reads a select or query handler makes under the
// tracked store's read lock.
func (c side) inView(ctx context.Context, s *inproc, o *op, img *cardirect.Image) error {
	switch o.kind {
	case opSelect:
		rs, err := cardirect.ParseRelationSet(o.rel)
		if err != nil {
			return err
		}
		ref := img.FindRegion(o.a)
		if ref == nil {
			return fmt.Errorf("region %s not in the document", o.a)
		}
		c.time("index.select", func() error {
			_, _, err := s.tr.Index().SelectStatsCtx(ctx, ref.Geometry(), rs)
			return err
		})
	case opQuery:
		var ev *cardirect.Evaluator
		var pq *cardirect.PreparedQuery
		c.time("query.evaluator", func() error {
			var err error
			if ev, err = cardirect.NewEvaluator(img); err == nil {
				ev.UseStore(s.tr.Store())
				ev.UseIndex(s.tr.Index())
			}
			return err
		})
		if ev == nil {
			return nil
		}
		c.time("query.plan", func() error {
			var err error
			pq, err = ev.Prepare(queryTemplates[o.tmpl])
			return err
		})
		if pq == nil {
			return nil
		}
		c.time("query.join", func() error {
			_, err := pq.EvalCtx(ctx, o.args)
			return err
		})
	}
	return nil
}

// edit times how long the in-process replica takes to apply an
// acknowledged edit, then replays the edit on the shadow layers and the
// side log.
func (c side) edit(s *inproc, o *op) {
	if s.rep != nil {
		ack, gen, lag := time.Now(), s.tr.Store().Generation(), s.rep.Lag()
		c.time("replica.apply", func() error {
			for s.rep.Tracked().Store().Generation() < gen {
				if time.Since(ack) > 10*time.Second {
					return fmt.Errorf("replica did not reach generation %d", gen)
				}
				time.Sleep(20 * time.Microsecond)
			}
			return nil
		})
		c.st.mu.Lock()
		c.st.lagMax = max(c.st.lagMax, lag)
		c.st.mu.Unlock()
	}
	if o.kind != opDelete {
		wkt := cardirect.FormatWKT(o.geom)
		c.time("geom.parse", func() error { _, err := cardirect.ParseWKT(wkt); return err })
	}
	if s.shadowTr == nil {
		return
	}
	rec := wal.Record{ID: o.a, Geometry: o.geom}
	switch o.kind {
	case opPut:
		rec.Op = wal.OpSetGeometry
		c.time("config.edit", func() error { return s.shadowTr.SetRegionGeometry(o.a, o.geom) })
		c.time("core.delta", func() error { return s.shadowStore.SetGeometry(o.a, o.geom) })
		c.time("index.update", func() error { return s.shadowIdx.SetGeometry(o.a, o.geom) })
	case opAdd:
		rec.Op, rec.Name, rec.Color = wal.OpAdd, o.a, "grey"
		c.time("config.edit", func() error { return s.shadowTr.AddRegion(o.a, o.a, "grey", o.geom) })
		c.time("core.delta", func() error { return s.shadowStore.Add(o.a, o.geom) })
		c.time("index.update", func() error { return s.shadowIdx.Add(o.a, o.geom) })
	case opDelete:
		rec.Op, rec.Geometry = wal.OpRemove, nil
		c.time("config.edit", func() error { return s.shadowTr.RemoveRegion(o.a) })
		c.time("core.delta", func() error { return s.shadowStore.Remove(o.a) })
		c.time("index.update", func() error { return s.shadowIdx.Remove(o.a) })
	}
	c.time("wal.append", func() error { return s.sideWAL.Append(rec) })
	c.time("wal.fsync", func() error { return s.sideWAL.Sync() })
}

// readCounters takes the counters an answer carries: plan-cache outcome
// and candidate counts of queries, candidates of selections, snapshot
// duration and size, and reasoning stage times.
func readCounters(o *op, i int, out []byte, st *opStats) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch o.kind {
	case opQuery:
		var r struct {
			Data struct {
				Bindings []json.RawMessage `json:"bindings"`
				Plan     struct {
					Candidates map[string]int `json:"candidates"`
				} `json:"plan"`
				Cache string `json:"cache"`
			} `json:"data"`
		}
		if json.Unmarshal(out, &r) == nil {
			st.queries++
			if r.Data.Cache == "hit" {
				st.cacheHits++
			} else {
				st.planned[i] = true
			}
			for _, n := range r.Data.Plan.Candidates {
				st.candidates += n
			}
			st.bindings += len(r.Data.Bindings)
		}
	case opSelect:
		var r struct {
			Data struct {
				Matches []string `json:"matches"`
				Stats   struct {
					Candidates int `json:"Candidates"`
				} `json:"stats"`
			} `json:"data"`
		}
		if json.Unmarshal(out, &r) == nil {
			st.selCandidates += r.Data.Stats.Candidates
			st.selMatches += len(r.Data.Matches)
		}
	case opSnapshot:
		var r struct {
			Data cardirect.SnapshotInfo `json:"data"`
		}
		if json.Unmarshal(out, &r) == nil {
			st.snapshotMs = append(st.snapshotMs, float64(r.Data.DurationNs)/1e6)
			st.snapshotMB = append(st.snapshotMB, float64(r.Data.Bytes)/(1<<20))
		}
	case opCheck:
		var r struct {
			Data struct {
				Stats cardirect.CheckStats `json:"stats"`
			} `json:"data"`
		}
		if json.Unmarshal(out, &r) == nil {
			s := r.Data.Stats
			st.checks++
			if s.FastPathDecided {
				st.fastpath++
			}
			for name, ns := range map[string]int64{"refine": s.RefineNs, "joint": s.JointNs,
				"fastpath": s.FastPathNs, "solve": s.SolveNs} {
				st.reasonNs[name] = append(st.reasonNs[name], float64(ns)/1e6)
			}
		}
	}
}

// runTrace replays the workload's seeded operations in one process, once
// untraced and once traced, and derives the per-layer metrics.
func runTrace(ctx context.Context, o *options) (*outcome, error) {
	sp, err := specFor(o)
	if err != nil {
		return nil, err
	}
	w, err := newWorld(o.seed, sp.n)
	if err != nil {
		return nil, err
	}
	t := &tracer{t0: time.Now()}
	s, err := buildInproc(ctx, o, sp, w, t)
	if err != nil {
		return nil, err
	}
	defer s.close()

	mk := newMaker(o.seed, w, sp.fullNets)
	warm, err := mk.schedule(sp.warmRates(), warmup, 0)
	if err != nil {
		return nil, err
	}
	st := &opStats{reasonNs: map[string][]float64{}, planned: map[int]bool{}, sideErrs: map[string]int{}}
	runPhase(ctx, tracedExec(ctx, s, t, warm, st, false, nil), warm, nil, nil)
	// The same schedule the end-to-end run measures, cut to half the run
	// for each of the two passes.
	ops, err := mk.schedule(sp.rates, time.Duration(o.seconds)*time.Second, sp.snapEdits)
	if err != nil {
		return nil, err
	}
	cut := time.Duration(o.seconds) * time.Second / 2
	k := sort.Search(len(ops), func(i int) bool { return ops[i].at >= cut })
	ops = ops[:k]
	// Keep add/delete pairs whole so both passes replay cleanly: drop an
	// add whose delete fell past the cut.
	pending := -1
	for i := range ops {
		switch ops[i].kind {
		case opAdd:
			pending = i
		case opDelete:
			pending = -1
		}
	}
	if pending >= 0 {
		ops = append(ops[:pending], ops[pending+1:]...)
	}

	plainHandler, tracedHandler := make([]time.Duration, len(ops)), make([]time.Duration, len(ops))
	plain := runPhase(ctx, tracedExec(ctx, s, t, ops, st, false, plainHandler), ops, nil, nil)
	deltaBefore := s.tr.Store().Stats().DeltaPairs
	var walBefore cardirect.PersistStatus
	if s.ps != nil {
		walBefore = s.ps.Status()
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.t0 = time.Now()
	t.mu.Unlock()
	traced := runPhase(ctx, tracedExec(ctx, s, t, ops, st, true, tracedHandler), ops, sampler(ops, !sp.durable && !sp.reason), nil)

	oc := &outcome{}
	for _, ph := range []*phase{plain, traced} {
		a, f := ph.collect(ops, map[string]series{}, window)
		oc.attempted += a
		oc.failed += f
	}
	if oc.failed > 0 {
		oc.notes = append(oc.notes, fmt.Sprintf("%d requests failed or returned an unexpected status", oc.failed))
	}
	switch {
	case sp.reason:
		checkReasoning(ops, traced, oc)
	case !sp.durable:
		if err := checkReads(ctx, w, ops, traced, oc); err != nil {
			return nil, err
		}
	}
	edits := 0
	for i := range ops {
		if ops[i].edit >= 0 {
			edits++
		}
	}
	lt := &layerTable{}
	layerMetrics(lt, t.spans, st)
	if edits > 0 {
		lt.add("core.delta_pairs_per_edit", float64(s.tr.Store().Stats().DeltaPairs-deltaBefore)/float64(edits), "count", edits, "edit_p50_ms", "edit_mix")
	}
	if d, ok := s.setup["core.batch"]; ok {
		lt.add("core.batch_ms", ms(d), "ms", 1, "setup_s", "all")
		lt.add("core.prune_ratio", s.setup["prune"].Seconds(), "ratio", 1, "setup_s, edit_p50_ms", "read_mix, edit_mix")
	}
	if d, ok := s.setup["persist.seed"]; ok {
		lt.add("persist.seed_ms", ms(d), "ms", 1, "setup_s", "edit_mix")
	}
	if len(st.snapshotMs) > 0 {
		lt.add("persist.snapshot_ms", median(st.snapshotMs), "ms", len(st.snapshotMs), "snapshot_s, read_p99_ms", "edit_mix")
		lt.add("persist.snapshot_mb", median(st.snapshotMB), "MiB", len(st.snapshotMB), "disk_mb", "edit_mix")
	}
	if s.ps != nil && edits > 0 {
		after := s.ps.Status()
		lt.add("wal.bytes_per_edit", float64(after.WAL.Bytes-walBefore.WAL.Bytes)/float64(edits), "bytes", edits, "disk_mb", "edit_mix")
		lt.add("wal.fsyncs_per_edit", float64(after.WAL.Fsyncs-walBefore.WAL.Fsyncs)/float64(edits), "count", edits, "edit_p50_ms", "edit_mix")
	}
	if d, ok := s.setup["replica.bootstrap"]; ok {
		lt.add("replica.bootstrap_ms", ms(d), "ms", 1, "setup_s", "edit_mix")
	}
	if s.rep != nil && edits > 0 {
		lt.add("replica.lag_records_max", float64(st.lagMax), "count", edits, "repl_visible_p99_ms", "edit_mix")
	}
	for name, n := range st.sideErrs {
		oc.notes = append(oc.notes, fmt.Sprintf("side call %s failed %d times; its timings are partial", name, n))
	}
	if st.checks > 0 {
		for _, name := range []string{"refine", "joint", "fastpath", "solve"} {
			lt.add("reason."+name+"_ms", mean(st.reasonNs[name]), "ms", st.checks, "reason_p50_ms, reason_p99_ms", "reason_core, reason_mix")
		}
		lt.add("reason.fastpath_share", float64(st.fastpath)/float64(st.checks), "ratio", st.checks, "reason_p50_ms", "reason_core, reason_mix")
	}
	lt.add("loadgen.late_p99_ms", traced.late.quantile(0.99), "ms", len(traced.late), "-", "all")
	lt.add("trace.overhead_ratio", meanMs(tracedHandler)/meanMs(plainHandler), "ratio", len(ops), "-", "all")
	if m, ok := oc.m.get("reason.witness_invalid"); ok {
		lt.add(m.Name, m.Value, m.Unit, m.Samples, "error_ratio", "reason_mix")
	}
	lt.missing(sp)

	// The traced run reports exactly the table's rows.
	oc.m = metrics{}
	for _, r := range lt.rows {
		oc.m.add(r.Name, r.Value, r.Unit, r.Samples)
	}
	if err := lt.write(o, t.spans); err != nil {
		return nil, err
	}
	return oc, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanMs(ds []time.Duration) float64 {
	var xs []float64
	for _, d := range ds {
		xs = append(xs, ms(d))
	}
	return mean(xs)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	metric
	Moves string `json:"moves"`
	On    string `json:"on"`
}

type layerTable struct {
	rows   []layerRow
	absent []string
}

func (lt *layerTable) add(name string, v float64, unit string, n int, moves, on string) {
	lt.rows = append(lt.rows, layerRow{metric: metric{Name: name, Value: v, Unit: unit, Samples: n}, Moves: moves, On: on})
}

// layerDefs lists the span-derived metrics: span name, metric, the
// end-to-end metric it should move, and where.
var layerDefs = []struct{ span, name, moves, on string }{
	{"serve.decode", "serve.decode_ms", "query_p50_ms, edit_p50_ms", "edit_mix"},
	{"serve.encode", "serve.encode_ms", "read_p50_ms", "read_mix"},
	{"serve.handler", "serve.handler_ms", "read_p50_ms", "read_mix"},
	{"geom.parse", "geom.parse_ms", "edit_p50_ms", "edit_mix"},
	{"config.view_wait", "config.view_wait_ms", "read_p99_ms, query_p99_ms", "edit_mix"},
	{"config.edit", "config.edit_ms", "edit_p50_ms", "edit_mix"},
	{"core.lookup", "core.lookup_ms", "read_p50_ms", "read_mix"},
	{"core.delta", "core.delta_ms", "edit_p50_ms", "edit_mix"},
	{"index.select", "index.select_ms", "read_p50_ms", "read_mix"},
	{"index.update", "index.update_ms", "edit_p50_ms", "edit_mix"},
	{"query.evaluator", "query.evaluator_ms", "query_p50_ms", "read_mix, edit_mix"},
	{"query.plan", "query.plan_ms", "query_p50_ms", "read_mix"},
	{"query.join", "query.join_ms", "query_p50_ms", "read_mix"},
	{"wal.append", "wal.append_ms", "edit_p50_ms, edit_p99_ms", "edit_mix"},
	{"wal.fsync", "wal.fsync_ms", "edit_p50_ms, edit_p99_ms", "edit_mix"},
	{"replica.apply", "replica.apply_ms", "repl_visible_p50_ms", "edit_mix"},
	{"serve.editor", "serve.editor_ms", "edit_p50_ms", "edit_mix"},
	{"reason.closure", "reason.closure_ms", "reason_p50_ms", "reason_core, reason_mix"},
}

// inHandler names the side-call spans whose work the handler also does,
// subtracted from its self time to leave the handler's own share.
var inHandler = map[string]bool{"config.view_wait": true, "core.lookup": true, "index.select": true,
	"query.evaluator": true, "query.join": true, "geom.parse": true}

// layerMetrics derives mean self times per span name, the handler's own
// share, and the ratios read from answers.
func layerMetrics(lt *layerTable, spans []span, st *opStats) {
	children := map[int]time.Duration{}
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			children[p] += spans[i].dur()
		}
	}
	// Side calls the handler duplicates, per op; planning only counts
	// when the server missed its plan cache, which the op's answer shows.
	est := map[int]time.Duration{}
	for i := range spans {
		if sp := &spans[i]; inHandler[sp.Name] || (sp.Name == "query.plan" && st.planned[sp.Op]) {
			est[sp.Op] += sp.dur()
		}
	}
	self := map[string][]float64{}
	for i := range spans {
		sp := &spans[i]
		d := sp.dur() - children[sp.ID]
		if sp.Name == "serve.handler" {
			d -= est[sp.Op]
			if d < 0 {
				d = 0
			}
		}
		self[sp.Name] = append(self[sp.Name], ms(d))
	}
	for _, def := range layerDefs {
		if xs := self[def.span]; len(xs) > 0 {
			lt.add(def.name, mean(xs), "ms", len(xs), def.moves, def.on)
		}
	}
	if st.selMatches > 0 {
		lt.add("index.candidates_per_match", float64(st.selCandidates)/float64(st.selMatches), "ratio", st.selMatches, "read_p50_ms", "read_mix")
	}
	if st.queries > 0 {
		lt.add("query.plan_cache_hit_ratio", float64(st.cacheHits)/float64(st.queries), "ratio", st.queries, "query_p50_ms", "read_mix (≈1) vs edit_mix (≈0)")
		lt.add("query.rows_per_binding", float64(st.candidates)/float64(max(1, st.bindings)), "ratio", st.bindings, "query_p99_ms", "read_mix")
	}
}

// allLayerMetrics is every per-layer metric the table accounts for.
var allLayerMetrics = []string{"serve.decode_ms", "serve.encode_ms", "serve.handler_ms", "geom.parse_ms",
	"config.view_wait_ms", "config.edit_ms", "core.lookup_ms", "core.delta_ms", "core.delta_pairs_per_edit",
	"core.batch_ms", "core.prune_ratio", "index.select_ms", "index.candidates_per_match", "index.update_ms",
	"query.evaluator_ms", "query.plan_ms", "query.join_ms", "query.plan_cache_hit_ratio", "query.rows_per_binding",
	"persist.seed_ms", "persist.snapshot_ms", "persist.snapshot_mb", "wal.append_ms", "wal.fsync_ms",
	"wal.bytes_per_edit", "wal.fsyncs_per_edit", "replica.bootstrap_ms", "replica.apply_ms", "replica.lag_records_max",
	"reason.refine_ms", "reason.joint_ms", "reason.fastpath_ms", "reason.solve_ms", "reason.fastpath_share",
	"reason.closure_ms", "reason.witness_invalid", "loadgen.late_p99_ms", "trace.overhead_ratio"}

// missing lists the metrics this workload cannot produce, with the reason.
func (lt *layerTable) missing(sp spec) {
	have := map[string]bool{}
	for _, r := range lt.rows {
		have[r.Name] = true
	}
	for _, name := range allLayerMetrics {
		if have[name] {
			continue
		}
		why := "this workload does not exercise the layer"
		switch {
		case sp.reason && !strings.HasPrefix(name, "reason."):
			why = "reasoning touches no world state"
		case !sp.durable && (strings.HasPrefix(name, "wal.") || strings.HasPrefix(name, "persist.") ||
			strings.HasPrefix(name, "replica.")):
			why = "in-memory primary: no data directory, WAL or replica"
		}
		lt.absent = append(lt.absent, name+": "+why)
	}
}

// write saves the span file and the per-layer table (text and JSON).
func (lt *layerTable) write(o *options, spans []span) error {
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	f, err := os.Create(base + "-spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var tb bytes.Buffer
	fmt.Fprintf(&tb, "per-layer table: %s seed %d (%d spans)\n", o.workload, o.seed, len(spans))
	fmt.Fprintf(&tb, "%-28s %12s %-6s %8s  %-30s %s\n", "metric", "value", "unit", "count", "should move", "on")
	for _, r := range lt.rows {
		fmt.Fprintf(&tb, "%-28s %12.6g %-6s %8d  %-30s %s\n", r.Name, r.Value, r.Unit, r.Samples, r.Moves, r.On)
	}
	for _, a := range lt.absent {
		fmt.Fprintf(&tb, "absent  %s\n", a)
	}
	if err := os.WriteFile(base+"-layers.txt", tb.Bytes(), 0o644); err != nil {
		return err
	}
	return writeJSONFile(base+"-layers.json", map[string]any{"rows": lt.rows, "absent": lt.absent})
}
