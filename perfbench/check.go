package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"cardirect"
)

var tiles = []cardirect.Tile{cardirect.TileB, cardirect.TileS, cardirect.TileSW, cardirect.TileW,
	cardirect.TileNW, cardirect.TileN, cardirect.TileNE, cardirect.TileE, cardirect.TileSE}

// checker verifies sampled read answers against independent oracles over
// the benchmark's own copy of the world: the paper's Compute-CDR and
// CDR% kernels, a brute-force selection scan, and the planner-off query
// evaluator.
type checker struct {
	w  *world
	ev *cardirect.Evaluator
}

func newChecker(w *world) (*checker, error) {
	ev, err := cardirect.NewEvaluator(w.img)
	if err != nil {
		return nil, err
	}
	ev.SetPlanner(false)
	return &checker{w: w, ev: ev}, nil
}

// check reports whether body is the right answer to o.
func (c *checker) check(ctx context.Context, o *op, body []byte) (bool, error) {
	switch o.kind {
	case opRelation, opRelationPct:
		return c.relation(o, body)
	case opSelect:
		return c.selection(o, body)
	case opGet:
		var resp struct {
			Data struct {
				WKT string `json:"wkt"`
			} `json:"data"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return false, err
		}
		return resp.Data.WKT == cardirect.FormatWKT(c.w.geom[o.a]), nil
	case opQuery:
		return c.query(ctx, o, body)
	}
	return false, fmt.Errorf("no oracle for %v", o.kind)
}

func (c *checker) relation(o *op, body []byte) (bool, error) {
	var resp struct {
		Data struct {
			Relation string             `json:"relation"`
			Pct      map[string]float64 `json:"pct"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	a, b := c.w.geom[o.a], c.w.geom[o.b]
	want, err := cardirect.ComputeCDR(a, b)
	if err != nil {
		return false, err
	}
	if resp.Data.Relation != want.String() {
		return false, nil
	}
	if o.kind != opRelationPct {
		return true, nil
	}
	m, _, err := cardirect.ComputeCDRPct(a, b)
	if err != nil {
		return false, err
	}
	for _, t := range tiles {
		if math.Abs(resp.Data.Pct[t.String()]-m.Get(t)) > 1e-6 {
			return false, nil
		}
	}
	return true, nil
}

func (c *checker) selection(o *op, body []byte) (bool, error) {
	var resp struct {
		Data struct {
			Matches []string `json:"matches"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	allowed, err := cardirect.ParseRelationSet(o.rel)
	if err != nil {
		return false, err
	}
	ref := c.w.geom[o.a]
	var want []string
	for _, id := range c.w.ids {
		r := cardirect.B // a region is only B of itself
		if id != o.a {
			if r, err = cardirect.ComputeCDR(c.w.geom[id], ref); err != nil {
				return false, err
			}
		}
		if allowed.Contains(r) {
			want = append(want, id)
		}
	}
	got := append([]string(nil), resp.Data.Matches...)
	sort.Strings(got)
	return strings.Join(got, ",") == strings.Join(want, ","), nil
}

func (c *checker) query(ctx context.Context, o *op, body []byte) (bool, error) {
	var resp struct {
		Data struct {
			Vars     []string            `json:"vars"`
			Bindings []map[string]string `json:"bindings"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	res, err := c.ev.Run(ctx, queryTemplates[o.tmpl], o.args)
	if err != nil {
		return false, err
	}
	key := func(b map[string]string) string {
		parts := make([]string, len(res.Vars))
		for i, v := range res.Vars {
			parts[i] = b[v]
		}
		return strings.Join(parts, ",")
	}
	var got, want []string
	for _, b := range resp.Data.Bindings {
		got = append(got, key(b))
	}
	for _, b := range res.Bindings {
		want = append(want, key(b))
	}
	sort.Strings(got)
	sort.Strings(want)
	return strings.Join(got, ";") == strings.Join(want, ";"), nil
}

// checkRelations compares a /v1/relations body with a from-scratch
// Compute-CDR of every ordered pair of model.
func checkRelations(body []byte, model map[string]cardirect.Region) (bool, error) {
	var resp struct {
		Data struct {
			Pairs []struct {
				Primary   string `json:"primary"`
				Reference string `json:"reference"`
				Relation  string `json:"relation"`
			} `json:"pairs"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return false, err
	}
	n := len(model)
	if len(resp.Data.Pairs) != n*(n-1) {
		return false, nil
	}
	pairs := resp.Data.Pairs
	var wg sync.WaitGroup
	bad := make([]bool, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pairs); i += 2 {
				p := pairs[i]
				a, okA := model[p.Primary]
				b, okB := model[p.Reference]
				if !okA || !okB {
					bad[w] = true
					return
				}
				r, err := cardirect.ComputeCDR(a, b)
				if err != nil || r.String() != p.Relation {
					bad[w] = true
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return !bad[0] && !bad[1], nil
}
