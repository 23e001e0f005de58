package query

import (
	"context"
	"fmt"
	"sort"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
)

// Binding maps query variables to region ids — one query answer.
type Binding map[string]string

// Evaluator answers queries over one CARDIRECT configuration. Pairwise
// relations are computed lazily with Compute-CDR and cached, so repeated
// queries over the same configuration pay the geometry cost once per ordered
// pair.
type Evaluator struct {
	img       *config.Image
	geoms     map[string]geom.Region
	regs      map[string]*config.Region
	preps     map[string]*core.Prepared
	sc        *core.Scratch
	ids       []string
	store     *core.RelationStore
	live      *index.Live
	plans     *PlanCache
	noPlanner bool
	cacheGen  uint64
	relCache  map[[2]string]core.Relation
	pctCache  map[[2]string]core.PercentMatrix
	attrs     map[string]func(*config.Region) string
	attrIdx   map[string]map[string][]string
}

// NewEvaluator prepares an evaluator for the configuration. The built-in
// thematic attributes are "color" and "name" (the paper's model allows any
// attribute set C; RegisterAttr adds more).
func NewEvaluator(img *config.Image) (*Evaluator, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	e := newEvaluator(img)
	e.plans = NewPlanCache(64)
	return e, nil
}

// NewTrackedEvaluator prepares an evaluator over a tracked configuration,
// wired to its maintained store and live index and to the given plan cache
// (nil disables plan caching). It skips NewEvaluator's validation: Track
// validated the document and every Tracked edit method validates its
// geometry. Call it inside tr.View and drop the evaluator when View
// returns.
func NewTrackedEvaluator(tr *config.Tracked, plans *PlanCache) *Evaluator {
	e := newEvaluator(tr.Image())
	e.store = tr.Store()
	e.live = tr.Index()
	e.plans = plans
	return e
}

// newEvaluator builds an evaluator over img without validating it and
// without a plan cache.
func newEvaluator(img *config.Image) *Evaluator {
	e := &Evaluator{
		img:      img,
		geoms:    make(map[string]geom.Region, len(img.Regions)),
		regs:     make(map[string]*config.Region, len(img.Regions)),
		preps:    make(map[string]*core.Prepared, len(img.Regions)),
		sc:       &core.Scratch{},
		relCache: map[[2]string]core.Relation{},
		pctCache: map[[2]string]core.PercentMatrix{},
		attrs: map[string]func(*config.Region) string{
			"color": func(r *config.Region) string { return r.Color },
			"name":  func(r *config.Region) string { return r.Name },
		},
	}
	for i := range img.Regions {
		// Snapshot the region values alongside the geometries: attribute
		// filters and the planner's selectivity counting then run as map
		// lookups instead of linear FindRegion scans, and stay valid if
		// the image's Regions slice is reallocated by an append elsewhere.
		r := img.Regions[i]
		e.geoms[r.ID] = r.Geometry()
		e.regs[r.ID] = &r
		e.ids = append(e.ids, r.ID)
	}
	sort.Strings(e.ids)
	return e
}

// RegisterAttr adds a thematic attribute accessor usable in attribute
// conditions. The accessor must be a pure function of the region (the
// secondary attribute index memoises its values); re-registering a name
// drops that attribute's index so the new accessor takes effect.
func (e *Evaluator) RegisterAttr(name string, fn func(*config.Region) string) {
	e.attrs[name] = fn
	delete(e.attrIdx, name)
}

// attrIndex returns the secondary hash index for one thematic attribute —
// value ↦ sorted region ids — building it lazily on first use (one pass
// over the configuration snapshot, then every attribute filter and planner
// selectivity count is a map lookup). The evaluator's region snapshot is
// immutable, so an index never goes stale; only RegisterAttr invalidates.
// The caller must have checked that the attribute exists in e.attrs.
func (e *Evaluator) attrIndex(attr string) map[string][]string {
	if idx, ok := e.attrIdx[attr]; ok {
		return idx
	}
	fn := e.attrs[attr]
	idx := make(map[string][]string)
	// e.ids is sorted, so every bucket comes out sorted — the form
	// intersectSorted/subtractSorted need.
	for _, id := range e.ids {
		v := fn(e.regs[id])
		idx[v] = append(idx[v], id)
	}
	if e.attrIdx == nil {
		e.attrIdx = make(map[string]map[string][]string)
	}
	e.attrIdx[attr] = idx
	return idx
}

// UseStore wires a maintained core.RelationStore into the evaluator:
// Relation and Percent answer from its delta-maintained cache — fresher
// than any materialised Relation elements and never recomputing geometry —
// falling back to the evaluator's own lazy computation for pairs the store
// does not hold. The store's region names must be the configuration's
// region ids (as config.Track arranges). Pass nil to detach.
func (e *Evaluator) UseStore(s *core.RelationStore) {
	e.store = s
}

// UseIndex wires a maintained index.Live into the evaluator: the planner's
// selectivity probes and relation pushdown run window queries against it
// instead of bulk-loading transient trees. The index must cover the
// evaluator's configuration (as config.Track arranges). Pass nil to detach.
func (e *Evaluator) UseIndex(l *index.Live) {
	e.live = l
}

// SetPlanner toggles cost-based planning (on by default). With the planner
// off, Eval and Run bind variables and check conditions in written order —
// the reference semantics the planner's differential tests compare against.
func (e *Evaluator) SetPlanner(on bool) {
	e.noPlanner = !on
}

// SetPlanCache replaces the evaluator's plan cache (a fresh evaluator owns
// a private 64-entry cache). Sharing one cache across request-scoped
// evaluators over the same tracked configuration lets repeated queries skip
// parsing and planning; entries are validated against the store generation.
// Pass nil to disable plan caching.
func (e *Evaluator) SetPlanCache(c *PlanCache) {
	e.plans = c
}

// PlanCacheHandle returns the evaluator's current plan cache (nil when
// disabled).
func (e *Evaluator) PlanCacheHandle() *PlanCache { return e.plans }

// freshenCaches drops the lazy relation/percent caches when the attached
// store's generation has moved since they were filled: cached pairs reflect
// the geometry at fill time, so serving them across an edit would answer
// queries from stale state even though the store itself is fresh. Every
// query entry point calls this; direct Relation/Percent callers on a
// long-lived evaluator over an edited store should call query paths instead
// or use a fresh evaluator.
func (e *Evaluator) freshenCaches() {
	gen := e.generation()
	if gen == e.cacheGen {
		return
	}
	e.cacheGen = gen
	clear(e.relCache)
	clear(e.pctCache)
}

// prepared returns the region's Prepared form, building and caching it on
// first use. All repeated-query geometry goes through this cache, so each
// region is normalised and edge-flattened at most once per evaluator.
func (e *Evaluator) prepared(id string) (*core.Prepared, error) {
	if p, ok := e.preps[id]; ok {
		return p, nil
	}
	p, err := core.Prepare(id, e.geoms[id])
	if err != nil {
		return nil, err
	}
	e.preps[id] = p
	return p, nil
}

// Relation returns the cardinal direction relation of primary p versus
// reference q, computing and caching it on first use. Materialised
// relations in the configuration are trusted when present.
func (e *Evaluator) Relation(p, q string) (core.Relation, error) {
	key := [2]string{p, q}
	if r, ok := e.relCache[key]; ok {
		return r, nil
	}
	if e.store != nil && e.store.Has(p) && e.store.Has(q) {
		if r, err := e.store.Relation(p, q); err == nil {
			e.relCache[key] = r
			return r, nil
		}
	}
	if entry, ok := e.img.RelationBetween(p, q); ok {
		r, err := core.ParseRelation(entry.Type)
		if err == nil {
			e.relCache[key] = r
			return r, nil
		}
	}
	pa, err := e.prepared(p)
	if err != nil {
		return 0, fmt.Errorf("query: relation %s vs %s: %w", p, q, err)
	}
	pb, err := e.prepared(q)
	if err != nil {
		return 0, fmt.Errorf("query: relation %s vs %s: %w", p, q, err)
	}
	r, err := core.Relate(pa, pb, e.sc)
	if err != nil {
		return 0, fmt.Errorf("query: relation %s vs %s: %w", p, q, err)
	}
	e.relCache[key] = r
	return r, nil
}

// Percent returns the percentage matrix of primary p versus reference q,
// computing and caching it on first use.
func (e *Evaluator) Percent(p, q string) (core.PercentMatrix, error) {
	key := [2]string{p, q}
	if m, ok := e.pctCache[key]; ok {
		return m, nil
	}
	if e.store != nil && e.store.Has(p) && e.store.Has(q) {
		if m, err := e.store.Percent(p, q); err == nil {
			e.pctCache[key] = m
			return m, nil
		}
	}
	pa, err := e.prepared(p)
	if err != nil {
		return core.PercentMatrix{}, fmt.Errorf("query: percentages %s vs %s: %w", p, q, err)
	}
	pb, err := e.prepared(q)
	if err != nil {
		return core.PercentMatrix{}, fmt.Errorf("query: percentages %s vs %s: %w", p, q, err)
	}
	m, _, err := core.RelatePct(pa, pb, e.sc)
	if err != nil {
		return core.PercentMatrix{}, fmt.Errorf("query: percentages %s vs %s: %w", p, q, err)
	}
	e.pctCache[key] = m
	return m, nil
}

// EvalString parses and evaluates a query in one step, through the planner
// and plan cache (see Run for the full result).
func (e *Evaluator) EvalString(input string) ([]Binding, error) {
	return e.EvalStringCtx(context.Background(), input)
}

// EvalStringCtx is EvalString honoring a context (see EvalCtx).
func (e *Evaluator) EvalStringCtx(ctx context.Context, input string) ([]Binding, error) {
	res, err := e.Run(ctx, input, nil)
	if err != nil {
		return nil, err
	}
	return res.Bindings, nil
}

// Eval evaluates the query, returning every satisfying assignment of region
// ids to head variables in lexicographic order. Distinct variables may bind
// to the same region unless a condition forbids it, matching the relational
// semantics of the paper's query model.
func (e *Evaluator) Eval(q *Query) ([]Binding, error) {
	return e.EvalCtx(context.Background(), q)
}

// EvalCtx is Eval honoring a context: the join loop checks for cancellation
// at every candidate binding, so a server timeout aborts an expensive
// multi-variable join mid-search with the context's error. The query is
// evaluated through the cost-based planner unless SetPlanner(false); the
// text entry points (Run, EvalString) additionally consult the plan cache.
func (e *Evaluator) EvalCtx(ctx context.Context, q *Query) ([]Binding, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.freshenCaches()
	if e.noPlanner {
		return e.evalWrittenOrder(ctx, q)
	}
	rq, err := q.resolve(nil)
	if err != nil {
		return nil, err
	}
	plan := e.buildPlan(q)
	ex, err := e.prepareExec(ctx, rq, plan)
	if err != nil {
		return nil, err
	}
	return e.runJoin(ctx, rq, plan, ex)
}

// evalWrittenOrder evaluates the query in the user's written order — the
// pre-planner semantics, kept as the planner-off path and as the reference
// implementation the planner is differentially tested against.
func (e *Evaluator) evalWrittenOrder(ctx context.Context, q *Query) ([]Binding, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.freshenCaches()
	// Pre-index conditions per variable for cheap unit propagation:
	// bindings and attribute filters restrict candidate sets up-front.
	candidates, err := e.buildCandidates(q)
	if err != nil {
		return nil, err
	}
	// Relation and percentage conditions, grouped for the join loop.
	var rels []RelCond
	var pcts []PctCond
	for _, c := range q.Conds {
		switch cc := c.(type) {
		case RelCond:
			rels = append(rels, cc)
		case PctCond:
			pcts = append(pcts, cc)
		}
	}

	// Indexed pre-filter: a relation condition whose reference side is
	// already pinned to one region is a directional selection, so its
	// primary side can be pruned through R-tree window queries before the
	// join loop ever binds it. The exact refinement inside FindRelated makes
	// the filter precise, not just sound. Materialised relations are trusted
	// over geometry, so the filter only applies when the configuration
	// carries none; any filter failure just falls back to the unpruned loop,
	// which surfaces errors with their usual context.
	if len(e.img.Relations) == 0 {
		for _, rc := range rels {
			if rc.Negated || rc.Left == rc.Right {
				continue
			}
			refCand := candidates[rc.Right]
			if len(refCand) != 1 || len(candidates[rc.Left]) < 2 {
				continue
			}
			// pushRTree prefers the maintained live index over bulk-loading
			// a transient tree, and honors the context; a filter failure
			// just falls back to the unpruned loop, which surfaces errors
			// with their usual context.
			keep, err := e.pushRTree(ctx, rc, refCand[0], candidates[rc.Left])
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				continue
			}
			candidates[rc.Left] = keep
		}
	}

	var out []Binding
	assign := make(map[string]string, len(q.Vars))
	var rec func(i int) error
	rec = func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i == len(q.Vars) {
			b := make(Binding, len(assign))
			for k, v := range assign {
				b[k] = v
			}
			out = append(out, b)
			return nil
		}
		v := q.Vars[i]
		for _, id := range candidates[v] {
			assign[v] = id
			ok := true
			// Check every relation condition whose variables are all bound.
			for _, rc := range rels {
				l, lok := assign[rc.Left]
				r, rok := assign[rc.Right]
				if !lok || !rok {
					continue
				}
				var rel core.Relation
				if l == r {
					rel = core.B // a region is only B of itself
				} else {
					var err error
					rel, err = e.Relation(l, r)
					if err != nil {
						return err
					}
				}
				if rc.Rels.Contains(rel) == rc.Negated {
					ok = false
					break
				}
			}
			if ok {
				for _, pc := range pcts {
					l, lok := assign[pc.Left]
					r, rok := assign[pc.Right]
					if !lok || !rok {
						continue
					}
					var pct float64
					if l == r {
						if pc.Tile == core.TileB {
							pct = 100 // a region is 100% B of itself
						}
					} else {
						m, err := e.Percent(l, r)
						if err != nil {
							return err
						}
						pct = m.Get(pc.Tile)
					}
					if !comparePct(pct, pc.Op, pc.Value) {
						ok = false
						break
					}
				}
			}
			if ok {
				if err := rec(i + 1); err != nil {
					return err
				}
			}
			delete(assign, v)
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	sortBindings(out, q.Vars)
	return out, nil
}

// comparePct applies a pct comparison with a small absolute tolerance on
// equality (percentages come from floating-point geometry).
func comparePct(pct float64, op string, value float64) bool {
	const eps = 1e-9
	switch op {
	case ">=":
		return pct >= value-eps
	case "<=":
		return pct <= value+eps
	case ">":
		return pct > value+eps
	case "<":
		return pct < value-eps
	default: // "="
		d := pct - value
		if d < 0 {
			d = -d
		}
		return d <= eps
	}
}

func sortBindings(bs []Binding, vars []string) {
	sort.Slice(bs, func(i, j int) bool {
		for _, v := range vars {
			if bs[i][v] != bs[j][v] {
				return bs[i][v] < bs[j][v]
			}
		}
		return false
	})
}
