// Package terrain provides a deterministic synthetic elevation and ground
// clutter model standing in for the NASA SRTM + NED dataset the paper uses
// for line-of-sight assessment (§3.1, §4).
//
// The model is the sum of three parts:
//
//   - a smooth regional base surface (e.g. the US high plains rising west
//     toward the Rockies),
//   - parameterised mountain ranges, each a polyline crest with a Gaussian
//     cross-section (Rockies, Sierra Nevada, Cascades, Appalachians; the
//     Alps, Pyrenees, Carpathians, Apennines for Europe), and
//   - multi-octave value noise for local relief, seeded and fully
//     deterministic.
//
// Ground clutter (tree canopy, buildings) is modelled as a separate
// low-amplitude noise field, because the paper's dataset "includes buildings
// and ground clutter, and effectively incorporates the height of the tree
// canopy". Line-of-sight code should test clearance against SurfaceHeight,
// which includes clutter, exactly as the paper tests against its combined
// dataset.
//
// The substitution preserves what matters to the cISP design study: hop
// feasibility degrades in mountainous regions, so tower paths detour there
// (e.g. the Illinois-California link of Fig 4b crosses the Rockies), while
// the plains and the eastern seaboard are easy.
package terrain

import (
	"math"

	"cisp/internal/geo"
)

// Sample is one point of a terrain profile between two endpoints.
type Sample struct {
	Dist    float64 // meters from the start of the profile
	Ground  float64 // bare-earth elevation, meters above sea level
	Clutter float64 // additional clutter height (trees, buildings), meters
}

// Ridge is a mountain range: a crest polyline with a Gaussian cross-section.
type Ridge struct {
	Crest  []geo.Point // waypoints along the range's spine
	Height float64     // peak height above the base surface, meters
	Width  float64     // Gaussian sigma of the cross-section, meters
}

// Model is a deterministic synthetic terrain. The zero value is a flat,
// clutter-free plain at sea level, ready to use in tests.
type Model struct {
	seed        int64
	ridges      []Ridge
	base        func(geo.Point) float64
	noiseAmp    float64 // amplitude of the relief noise, meters
	noiseScale  float64 // degrees per noise cell at the first octave
	clutterAmp  float64 // max clutter height, meters
	clutterFrac float64 // fraction of terrain carrying significant clutter
}

// Flat returns a featureless sea-level terrain with no clutter. Useful in
// tests and as a best-case bound for hop feasibility.
func Flat() *Model { return &Model{} }

// New constructs a synthetic terrain with the given ranges and noise
// parameters. base may be nil for a sea-level base surface.
func New(seed int64, ridges []Ridge, base func(geo.Point) float64, noiseAmp, noiseScale, clutterAmp float64) *Model {
	return &Model{
		seed:        seed,
		ridges:      ridges,
		base:        base,
		noiseAmp:    noiseAmp,
		noiseScale:  noiseScale,
		clutterAmp:  clutterAmp,
		clutterFrac: 0.6,
	}
}

// Elevation returns the bare-earth elevation in meters at p.
func (m *Model) Elevation(p geo.Point) float64 {
	e := 0.0
	if m.base != nil {
		e = m.base(p)
	}
	for i := range m.ridges {
		e += m.ridges[i].contribution(p)
	}
	if m.noiseAmp > 0 {
		e += m.noiseAmp * m.fractalNoise(p, 0)
	}
	if e < 0 {
		e = 0
	}
	return e
}

// ClutterHeight returns the obstruction height above ground (tree canopy,
// buildings) at p.
func (m *Model) ClutterHeight(p geo.Point) float64 {
	if m.clutterAmp == 0 {
		return 0
	}
	n := m.fractalNoise(p, 1) // in [-1, 1]
	v := (n + 1) / 2          // [0, 1]
	if v < 1-m.clutterFrac {  // bare patches
		return 0
	}
	return m.clutterAmp * (v - (1 - m.clutterFrac)) / m.clutterFrac
}

// SurfaceHeight returns ground elevation plus clutter at p — the height a
// microwave sight-line must clear.
func (m *Model) SurfaceHeight(p geo.Point) float64 {
	return m.Elevation(p) + m.ClutterHeight(p)
}

// Profile samples the surface along the great circle from a to b every step
// meters (clamped to at least 2 samples, endpoints included).
func (m *Model) Profile(a, b geo.Point, step float64) []Sample {
	total := float64(a.DistanceTo(b))
	n := int(total/step) + 1
	if n < 2 {
		n = 2
	}
	out := make([]Sample, n+1)
	for i := 0; i <= n; i++ {
		f := float64(i) / float64(n)
		p := a.Intermediate(b, f)
		out[i] = Sample{
			Dist:    f * total,
			Ground:  m.Elevation(p),
			Clutter: m.ClutterHeight(p),
		}
	}
	return out
}

// contribution evaluates the ridge's Gaussian cross-section at p using the
// distance to the nearest crest segment.
func (r *Ridge) contribution(p geo.Point) float64 {
	if len(r.Crest) == 0 || r.Width <= 0 {
		return 0
	}
	d := distToPolyline(p, r.Crest)
	x := d / r.Width
	if x > 4 { // beyond 4 sigma the range is negligible
		return 0
	}
	return r.Height * math.Exp(-0.5*x*x)
}

// distToPolyline approximates the distance in meters from p to the polyline,
// using a local equirectangular projection per segment (adequate at mountain-
// range scale).
func distToPolyline(p geo.Point, line []geo.Point) float64 {
	if len(line) == 1 {
		return float64(p.DistanceTo(line[0]))
	}
	best := math.Inf(1)
	for i := 0; i+1 < len(line); i++ {
		if d := distToSegment(p, line[i], line[i+1]); d < best {
			best = d
		}
	}
	return best
}

func distToSegment(p, a, b geo.Point) float64 {
	// Project into a local plane centred at a; meters per degree.
	const mPerDegLat = 111194.9
	cosLat := math.Cos(a.Lat * math.Pi / 180)
	ax, ay := 0.0, 0.0
	bx := (b.Lon - a.Lon) * mPerDegLat * cosLat
	by := (b.Lat - a.Lat) * mPerDegLat
	px := (p.Lon - a.Lon) * mPerDegLat * cosLat
	py := (p.Lat - a.Lat) * mPerDegLat
	dx, dy := bx-ax, by-ay
	l2 := dx*dx + dy*dy
	t := 0.0
	if l2 > 0 {
		t = ((px-ax)*dx + (py-ay)*dy) / l2
		t = math.Max(0, math.Min(1, t))
	}
	cx, cy := ax+t*dx, ay+t*dy
	return math.Hypot(px-cx, py-cy)
}

// fractalNoise returns deterministic multi-octave value noise in [-1, 1] for
// the given channel (0 = relief, 1 = clutter).
func (m *Model) fractalNoise(p geo.Point, channel int64) float64 {
	scale := m.noiseScale
	if scale <= 0 {
		scale = 0.5
	}
	sum, amp, norm := 0.0, 1.0, 0.0
	x, y := p.Lon/scale, p.Lat/scale
	for oct := int64(0); oct < 4; oct++ {
		sum += amp * valueNoise(x, y, m.seed*1000003+channel*7919+oct)
		norm += amp
		amp *= 0.5
		x *= 2.03
		y *= 2.03
	}
	return sum / norm
}

// valueNoise is lattice value noise with smoothstep interpolation, in [-1,1].
func valueNoise(x, y float64, seed int64) float64 {
	x0, y0 := math.Floor(x), math.Floor(y)
	fx, fy := x-x0, y-y0
	ix, iy := int64(x0), int64(y0)
	v00 := latticeValue(ix, iy, seed)
	v10 := latticeValue(ix+1, iy, seed)
	v01 := latticeValue(ix, iy+1, seed)
	v11 := latticeValue(ix+1, iy+1, seed)
	sx, sy := smoothstep(fx), smoothstep(fy)
	top := v00 + (v10-v00)*sx
	bot := v01 + (v11-v01)*sx
	return top + (bot-top)*sy
}

func smoothstep(t float64) float64 { return t * t * (3 - 2*t) }

// latticeValue hashes an integer lattice point to a deterministic value in
// [-1, 1] (splitmix64 finaliser).
func latticeValue(x, y, seed int64) float64 {
	h := uint64(x)*0x9E3779B97F4A7C15 ^ uint64(y)*0xC2B2AE3D27D4EB4F ^ uint64(seed)*0x165667B19E3779F9
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53)*2 - 1
}
