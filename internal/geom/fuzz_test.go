package geom

import (
	"math"
	"reflect"
	"testing"
)

// FuzzParseWKT checks the WKT parser never panics and that accepted input
// roundtrips area-exactly through FormatWKT.
func FuzzParseWKT(f *testing.F) {
	for _, seed := range []string{
		"POLYGON ((0 0, 0 4, 4 4, 4 0, 0 0))",
		"POLYGON ((0 0, 0 4, 4 4, 4 0), (1 1, 1 3, 3 3, 3 1))",
		"MULTIPOLYGON (((0 0, 0 1, 1 1, 1 0)), ((5 5, 5 7, 7 7, 7 5)))",
		"polygon((0 0,0 4,4 4,4 0))",
		"", "POLYGON", "POLYGON ((", "POLYGON ((0 0))", "LINESTRING (0 0, 1 1)",
		"POLYGON ((0 0, 0 1e9, 1e9 1e9, 1e9 0))",
		"POLYGON ((0 0, 0 4, 4 4, 4 0)) trailing",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseWKT(s)
		if err != nil {
			return
		}
		if len(r) == 0 {
			t.Fatalf("ParseWKT(%q) returned empty region without error", s)
		}
		area := r.Area()
		if math.IsNaN(area) || math.IsInf(area, 0) {
			// Fuzz can feed huge coordinates whose area overflows; that is
			// an input-domain issue, not a parser bug — but NaN from
			// finite inputs would be.
			for _, p := range r {
				for _, v := range p {
					if !v.IsFinite() {
						return
					}
				}
			}
			if math.IsNaN(area) {
				t.Fatalf("finite input produced NaN area: %q", s)
			}
			return
		}
		back, err := ParseWKT(FormatWKT(r))
		if err != nil {
			t.Fatalf("reparse of formatted WKT failed for %q: %v", s, err)
		}
		if math.Abs(back.Area()-area) > 1e-9*math.Max(1, area) {
			t.Fatalf("roundtrip area drift for %q: %v vs %v", s, area, back.Area())
		}
	})
}

// FuzzParseGeoJSON checks the GeoJSON decoder behind region request bodies
// never panics, and that an accepted region is made of valid clockwise
// polygons that round-trip exactly through FormatGeoJSON.
func FuzzParseGeoJSON(f *testing.F) {
	for _, seed := range []string{
		`{"type":"Polygon","coordinates":[[[0,0],[4,0],[4,4],[0,4],[0,0]]]}`,
		`{"type":"Polygon","coordinates":[[[0,0],[6,0],[6,6],[0,6],[0,0]],[[2,2],[2,4],[4,4],[4,2],[2,2]]]}`,
		`{"type":"MultiPolygon","coordinates":[[[[0,0],[1,0],[1,1],[0,0]]],[[[5,5],[7,5],[7,7],[5,5]]]]}`,
		`{"type":"Polygon","coordinates":[[[0,0],[1,1],[0,0]]]}`,
		`{"type":"Polygon","coordinates":[]}`,
		`{"type":"MultiPolygon","coordinates":[]}`,
		`{"type":"Point","coordinates":[1,2]}`,
		`{"type":"Polygon","coordinates":[[[0,0],[1e308,0],[1e308,1e308],[0,0]]]}`,
		`{"type":"Polygon"}`,
		``, `null`, `[]`, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseGeoJSON(data)
		if err != nil {
			return
		}
		if len(r) == 0 {
			t.Fatalf("ParseGeoJSON(%q) returned an empty region without error", data)
		}
		for i, p := range r {
			if err := p.Validate(); err != nil {
				t.Fatalf("ParseGeoJSON(%q) piece %d invalid: %v", data, i, err)
			}
			if !p.IsClockwise() {
				t.Fatalf("ParseGeoJSON(%q) piece %d not clockwise", data, i)
			}
		}
		out, err := FormatGeoJSON(r)
		if err != nil {
			t.Fatalf("FormatGeoJSON of accepted %q: %v", data, err)
		}
		back, err := ParseGeoJSON(out)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", out, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip changed the region:\n%v\n%v", r, back)
		}
	})
}
