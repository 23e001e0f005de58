package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cardirect"
)

// colors is the attribute palette query templates filter on.
var colors = []string{"red", "green", "blue", "grey", "ochre", "teal"}

// world is the benchmark's own copy of the configuration it serves: the
// geometry exactly as the daemon parses it, so the oracles compute on the
// same coordinates as the server.
type world struct {
	side  float64
	ids   []string // initial region ids, sorted
	geom  map[string]cardirect.Region
	color map[string]string
	img   *cardirect.Image // the document as the daemon loads it
	xml   []byte
}

// newWorld generates n scattered regions from seed (workload.Scatter with
// eight edges per polygon, a color per region) and round-trips them
// through the XML codec the daemon reads.
func newWorld(seed int64, n int) (*world, error) {
	g := cardirect.NewGenerator(seed)
	src := &cardirect.Image{Name: "perfbench"}
	for i, r := range g.Scatter(n, 8) {
		id := fmt.Sprintf("r%04d", i)
		if err := src.AddRegion(id, id, colors[i%len(colors)], r); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		return nil, err
	}
	img, err := cardirect.ParseImage(buf.Bytes())
	if err != nil {
		return nil, err
	}
	w := &world{side: math.Sqrt(float64(n)) * 10, geom: map[string]cardirect.Region{},
		color: map[string]string{}, img: img, xml: buf.Bytes()}
	for i := range img.Regions {
		r := &img.Regions[i]
		w.ids = append(w.ids, r.ID)
		w.geom[r.ID] = r.Geometry()
		w.color[r.ID] = r.Color
	}
	sort.Strings(w.ids)
	return w, nil
}

// shapes draws replacement geometries for edits: star polygons of the
// same size range as the world's, anywhere in its window, normalised
// through WKT so the benchmark holds what the server parses.
type shapes struct {
	g    *cardirect.Generator
	rng  *rand.Rand
	side float64
}

func (s *shapes) next() (cardirect.Region, string, error) {
	r := 0.5 + 5.5*s.rng.Float64()
	p := s.g.StarPolygon(s.rng.Float64()*s.side, s.rng.Float64()*s.side, 0.3*r, r, 8)
	wkt := cardirect.FormatWKT(cardirect.Rgn(p))
	g, err := cardirect.ParseWKT(wkt)
	return g, wkt, err
}
