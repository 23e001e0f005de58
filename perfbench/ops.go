package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"cardirect"
)

// kind is one /v1 operation the generator issues.
type kind int

const (
	opRelation kind = iota
	opRelationPct
	opSelect
	opGet
	opQuery
	opPut
	opAdd
	opDelete
	opSnapshot
	opCheck
	opEntail
	opCompose
)

var kindNames = [...]string{"relation", "relation_pct", "select", "get", "query",
	"put", "add", "delete", "snapshot", "check", "entail", "compose"}

func (k kind) String() string { return kindNames[k] }

// class groups kinds into the end-to-end latency metrics.
func (k kind) class() string {
	switch k {
	case opRelation, opRelationPct, opSelect, opGet:
		return "read"
	case opQuery:
		return "query"
	case opPut, opAdd, opDelete:
		return "edit"
	case opSnapshot:
		return "snapshot"
	default:
		return "reason"
	}
}

// light reports whether k is one of the short requests a workload sends
// most of: reads, or reasoning checks and compositions.
func (k kind) light() bool {
	switch k {
	case opRelation, opRelationPct, opSelect, opGet, opCheck, opCompose:
		return true
	}
	return false
}

// op is one scheduled request plus what its answer is checked against.
type op struct {
	at     time.Duration // intended send time, from the start of the phase
	kind   kind
	method string
	path   string
	body   []byte
	a, b   string // relation primary/reference; select reference; get/edit target
	rel    string // select relation set
	tmpl   int    // query template
	args   map[string]string
	geom   cardirect.Region // edit geometry as the server parses it
	edit   int              // edits: how many edits were drawn before it; -1 for others
	net    *network         // reasoning request
}

// selectRelations is the pool of /v1/select relation sets.
var selectRelations = []string{"N", "{N, NE, NW}", "{S, SW, SE}", "E:NE", "{W, NW}",
	"B:N", "{B, B:N, B:S}", "{S, S:SW, SW}"}

// queryTemplates is the pool of parameterised /v1/query texts, far below
// the daemon's 256-entry plan cache. Each lists its pinned variable first,
// so the planner-off oracle (written order) stays cheap.
var queryTemplates = []string{
	"q(y, x) :- y = $r, x {N, NE, NW} y, color(x) = $c",
	"q(x, y) :- x = $r, y {S, SW, SE} x",
	"q(y, x) :- y = $r, pct(x S y) >= 50, color(x) = $c",
	"q(y, x, z) :- y = $r, x N y, z E x, color(x) = $c, color(z) = $d",
	"q(y, x) :- y = $r, not x {S, SW, SE, W, E} y, color(x) = $c",
	"q(y, x) :- y = $r, x {E, NE, SE} y, pct(x E y) >= 30",
	"q(y, x) :- y = $r, x {B, B:N, B:S, B:E, B:W} y",
	"q(x, y) :- x = $r, y {W, NW, SW} x, color(y) = $c",
}

// rate is one kind's share of an open-loop arrival process, per second.
type rate struct {
	kind kind
	hz   float64
}

// maker draws operations from the seed. It owns the edit state: add/delete
// pairs hold the region count steady by deleting each added region with
// the next add/delete draw.
type maker struct {
	rng     *rand.Rand
	w       *world
	shapes  *shapes
	nets    *netMaker
	added   int
	pending string
	edits   int
}

func newMaker(seed int64, w *world, fullNets bool) *maker {
	rng := rand.New(rand.NewSource(seed))
	return &maker{rng: rng, w: w, nets: &netMaker{rng: rand.New(rand.NewSource(seed + 1)), full: fullNets},
		shapes: &shapes{g: cardirect.NewGenerator(seed + 2), rng: rand.New(rand.NewSource(seed + 3)), side: w.side}}
}

func (m *maker) region() string { return m.w.ids[m.rng.Intn(len(m.w.ids))] }

// schedule draws a Poisson arrival schedule of length dur over rates,
// plus a snapshot rotation right after every snapEdits-th edit (0 = none).
func (m *maker) schedule(rates []rate, dur time.Duration, snapEdits int) ([]op, error) {
	total := 0.0
	for _, r := range rates {
		total += r.hz
	}
	var ops []op
	t := time.Duration(0)
	for {
		t += time.Duration(m.rng.ExpFloat64() / total * float64(time.Second))
		if t >= dur {
			break
		}
		pick := m.rng.Float64() * total
		k := rates[len(rates)-1].kind
		for _, r := range rates {
			if pick < r.hz {
				k = r.kind
				break
			}
			pick -= r.hz
		}
		o, err := m.op(k)
		if err != nil {
			return nil, err
		}
		o.at = t
		ops = append(ops, o)
		if snapEdits > 0 && o.edit >= 0 && (o.edit+1)%snapEdits == 0 {
			ops = append(ops, op{at: t, kind: opSnapshot, method: "POST", path: "/v1/admin/snapshot", edit: -1})
		}
	}
	// A trailing add would leave the phase one region up; close the pair.
	if m.pending != "" {
		o, err := m.op(opDelete)
		if err != nil {
			return nil, err
		}
		o.at = dur
		ops = append(ops, o)
	}
	return ops, nil
}

// op draws one operation of kind k.
func (m *maker) op(k kind) (op, error) {
	o := op{kind: k, method: "GET", edit: -1}
	switch k {
	case opRelation, opRelationPct:
		o.a, o.b = m.region(), m.region()
		for o.b == o.a {
			o.b = m.region()
		}
		o.path = "/v1/relation?primary=" + o.a + "&reference=" + o.b
		if k == opRelationPct {
			o.path += "&pct=1"
		}
	case opSelect:
		o.a = m.region()
		o.rel = selectRelations[m.rng.Intn(len(selectRelations))]
		o.path = "/v1/select?reference=" + o.a + "&relation=" + url.QueryEscape(o.rel)
	case opGet:
		o.a = m.region()
		o.path = "/v1/regions/" + o.a
	case opQuery:
		o.method, o.path = "POST", "/v1/query"
		o.tmpl = m.rng.Intn(len(queryTemplates))
		o.args = map[string]string{"r": m.region(),
			"c": colors[m.rng.Intn(len(colors))], "d": colors[m.rng.Intn(len(colors))]}
		o.body = mustJSON(map[string]any{"q": queryTemplates[o.tmpl], "args": o.args})
	case opPut, opAdd, opDelete:
		if k != opPut {
			// Add and delete alternate so the region count holds steady.
			k = opAdd
			if m.pending != "" {
				k = opDelete
			}
			o.kind = k
		}
		o.edit = m.edits
		m.edits++
		switch k {
		case opPut:
			o.a = m.region()
			g, wkt, err := m.shapes.next()
			if err != nil {
				return op{}, err
			}
			o.method, o.path, o.geom = "PUT", "/v1/regions/"+o.a, g
			o.body = mustJSON(map[string]string{"wkt": wkt})
		case opAdd:
			m.added++
			o.a = fmt.Sprintf("x%05d", m.added)
			m.pending = o.a
			g, wkt, err := m.shapes.next()
			if err != nil {
				return op{}, err
			}
			o.method, o.path, o.geom = "POST", "/v1/regions", g
			o.body = mustJSON(map[string]string{"id": o.a, "name": o.a, "color": "grey", "wkt": wkt})
		case opDelete:
			o.a, m.pending = m.pending, ""
			o.method, o.path = "DELETE", "/v1/regions/"+o.a
		}
	case opCheck, opEntail, opCompose:
		o.method = "POST"
		o.net = m.nets.next(k)
		o.path, o.body = o.net.request()
	}
	return o, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and slices of strings reach here
	}
	return b
}
