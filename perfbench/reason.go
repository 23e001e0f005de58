package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"cardirect"
)

// network is one generated /v1/reason request. Every network but the
// ROADMAP cases is built from a concrete configuration of boxes (truth),
// so it is satisfiable and every entailed or composed set must contain the
// true relation.
type network struct {
	label string // basic, disjunctive, joint, or the ROADMAP case "a N b DC"
	unsat bool   // the expected verdict is unsatisfiable
	vars  []string
	dir   []dirCons
	topo  []topoCons
	truth map[string]cardirect.Region
	x, y  string // entail pair
	comp  [3]string
	op    kind
}

type dirCons struct {
	x, y string
	set  cardirect.RelationSet
}

type topoCons struct {
	x, y string
	rels []cardirect.RCC8
}

func topoText(rels []cardirect.RCC8) string {
	var parts []string
	for _, r := range rels {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, "|")
}

// request renders the network as the route and body of its operation.
func (n *network) request() (string, []byte) {
	cons := make([]map[string]string, 0, len(n.dir))
	for _, c := range n.dir {
		cons = append(cons, map[string]string{"x": c.x, "y": c.y, "relation": c.set.String()})
	}
	switch n.op {
	case opEntail:
		return "/v1/reason/entail", mustJSON(map[string]any{"variables": n.vars, "constraints": cons, "x": n.x, "y": n.y})
	case opCompose:
		r1 := n.rel(n.comp[0], n.comp[1])
		r2 := n.rel(n.comp[1], n.comp[2])
		return "/v1/reason/compose", mustJSON(map[string]string{"r1": r1.String(), "r2": r2.String()})
	}
	var tc []map[string]string
	for _, c := range n.topo {
		tc = append(tc, map[string]string{"x": c.x, "y": c.y, "relation": topoText(c.rels)})
	}
	return "/v1/reason/check", mustJSON(map[string]any{"variables": n.vars, "constraints": cons, "topology": tc})
}

// rel is the true relation of x to y in the generating configuration.
func (n *network) rel(x, y string) cardirect.Relation {
	r, err := cardirect.ComputeCDR(n.truth[x], n.truth[y])
	if err != nil {
		panic(err) // boxes with positive extent always relate
	}
	return r
}

// roadmapCases are the two-variable joint cases of the ROADMAP's witness
// probe. a N b with PO or NTPP is unsatisfiable: overlapping interiors put
// part of a inside b's box, which makes B one of a's tiles. The other six
// are realisable (a non-convex b holds a inside its box for B).
var roadmapCases = []struct {
	rel  cardirect.Relation
	topo cardirect.RCC8
	sat  bool
}{
	{cardirect.N, cardirect.RccDC, true}, {cardirect.N, cardirect.RccEC, true},
	{cardirect.N, cardirect.RccPO, false}, {cardirect.N, cardirect.RccNTPP, false},
	{cardirect.B, cardirect.RccDC, true}, {cardirect.B, cardirect.RccEC, true},
	{cardirect.B, cardirect.RccPO, true}, {cardirect.B, cardirect.RccNTPP, true},
}

// netMaker draws reasoning requests: checks are 40% basic networks (every
// edge one box-to-box relation, the fragment fast path), 30% disjunctive
// (true relation plus decoys, the solver), 30% joint direction+RCC-8 — of
// which a quarter are the ROADMAP's two-variable cases, the rest networks
// carrying their configuration's true topology; entailments run on 3 to
// 5 variables. Without full, checks are only basic and disjunctive
// networks, at the same 4:3 ratio, and entailments run on 3 variables:
// closure cost grows steeply with the variable count (about 0.5 ms at 3,
// 10–460 ms at 4, 0.7–1.5 s at 5), so a median over mixed sizes would
// jump between regimes from seed to seed.
type netMaker struct {
	rng  *rand.Rand
	full bool
}

// boxes draws k boxes with corners on a small integer grid, so touching,
// overlapping and nested pairs all occur.
func (m *netMaker) boxes(k int) ([]string, map[string]cardirect.Region) {
	vars := make([]string, k)
	truth := make(map[string]cardirect.Region, k)
	for i := range vars {
		vars[i] = fmt.Sprintf("v%d", i)
		x0, y0 := m.rng.Intn(8), m.rng.Intn(8)
		truth[vars[i]] = cardirect.BoxRegion(float64(x0), float64(y0),
			float64(x0+1+m.rng.Intn(4)), float64(y0+1+m.rng.Intn(4)))
	}
	return vars, truth
}

func (m *netMaker) next(k kind) *network {
	n := &network{op: k}
	switch k {
	case opCompose:
		n.label = "compose"
		_, n.truth = m.boxes(3)
		n.comp = [3]string{"v0", "v1", "v2"}
		return n
	case opEntail:
		n.label = "entail"
		k := 3
		if m.full {
			k += m.rng.Intn(3)
		}
		n.vars, n.truth = m.boxes(k)
		m.constrain(n, 1)
		n.x, n.y = n.vars[0], n.vars[len(n.vars)-1]
		return n
	}
	p := m.rng.Float64()
	if !m.full {
		p *= 0.7
	}
	switch {
	case p < 0.4:
		n.label = "basic"
		n.vars, n.truth = m.boxes(3 + m.rng.Intn(4))
		m.constrain(n, 0)
	case p < 0.7:
		n.label = "disjunctive"
		n.vars, n.truth = m.boxes(3 + m.rng.Intn(2))
		m.constrain(n, 2)
	case p < 0.775:
		c := roadmapCases[m.rng.Intn(len(roadmapCases))]
		n.label = fmt.Sprintf("a %v b %v", c.rel, c.topo)
		n.unsat = !c.sat
		n.vars = []string{"a", "b"}
		n.dir = []dirCons{{"a", "b", cardirect.NewRelationSet(c.rel)}}
		n.topo = []topoCons{{"a", "b", []cardirect.RCC8{c.topo}}}
	default:
		n.label = "joint"
		n.vars, n.truth = m.boxes(2 + m.rng.Intn(3))
		m.constrain(n, 0)
		for i := 0; i+1 < len(n.vars); i++ {
			a, b := n.vars[i], n.vars[i+1]
			n.topo = append(n.topo, topoCons{a, b,
				[]cardirect.RCC8{cardirect.ClassifyRCC8(n.truth[a], n.truth[b], 0)}})
		}
	}
	return n
}

// constrain adds a chain of true relations plus one chord, each widened by
// up to decoys extra relations.
func (m *netMaker) constrain(n *network, decoys int) {
	all := cardirect.AllRelations()
	add := func(x, y string) {
		set := cardirect.NewRelationSet(n.rel(x, y))
		for i := 0; i < decoys; i++ {
			set = set.Union(cardirect.NewRelationSet(all[m.rng.Intn(len(all))]))
		}
		n.dir = append(n.dir, dirCons{x, y, set})
	}
	for i := 0; i+1 < len(n.vars); i++ {
		add(n.vars[i], n.vars[i+1])
	}
	if len(n.vars) > 2 {
		add(n.vars[0], n.vars[len(n.vars)-1])
	}
}

// checkReason verifies one reasoning answer: a check must be satisfiable
// with a witness that re-derives every directional constraint with
// Compute-CDR and every topological one with the RCC-8 classifier; an
// entailed or composed set must contain the true relation. It reports
// whether the answer holds and, for checks, whether the witness was the
// part that failed.
func checkReason(n *network, body []byte) (ok, witnessBad bool, err error) {
	switch n.op {
	case opEntail, opCompose:
		var resp struct {
			Data struct {
				Relation string `json:"relation"`
				Result   string `json:"result"`
			} `json:"data"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, false, err
		}
		var text string
		var want cardirect.Relation
		if n.op == opCompose {
			text, want = resp.Data.Result, n.rel(n.comp[0], n.comp[2])
		} else {
			text, want = resp.Data.Relation, n.rel(n.x, n.y)
		}
		set, err := cardirect.ParseRelationSet(text)
		if err != nil {
			return false, false, err
		}
		return set.Contains(want), false, nil
	}
	var resp struct {
		Data struct {
			Satisfiable bool              `json:"satisfiable"`
			Witness     map[string]string `json:"witness"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, false, err
	}
	if !resp.Data.Satisfiable || n.unsat {
		return resp.Data.Satisfiable == !n.unsat, false, nil
	}
	w := map[string]cardirect.Region{}
	for v, wkt := range resp.Data.Witness {
		g, err := cardirect.ParseWKT(wkt)
		if err != nil {
			return false, true, nil
		}
		w[v] = g
	}
	for _, c := range n.dir {
		r, err := cardirect.ComputeCDR(w[c.x], w[c.y])
		if err != nil || !c.set.Contains(r) {
			return false, true, nil
		}
	}
	for _, c := range n.topo {
		got := cardirect.ClassifyRCC8(w[c.x], w[c.y], 0)
		found := false
		for _, r := range c.rels {
			found = found || r == got
		}
		if !found {
			return false, true, nil
		}
	}
	return true, false, nil
}
