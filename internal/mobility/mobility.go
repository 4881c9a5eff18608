// Package mobility implements the node movement models used by the DFT-MSN
// simulator.
//
// The primary model, ZoneWalk, is the one described in the paper's
// evaluation (§5): each sensor has a home zone in a grid partition of the
// field; it moves in a straight line at a speed drawn uniformly from
// (0, vmax]; when it reaches a zone boundary it moves into the neighbouring
// zone with probability ExitProb (default 20 %) and bounces back otherwise
// (80 %), except that a boundary leading back to its home zone is always
// crossed. RandomWaypoint is provided as an alternative model for
// sensitivity studies (the SWIM-style uniform-mobility assumption).
package mobility

import (
	"fmt"
	"math"

	"dftmsn/internal/geo"
	"dftmsn/internal/simrand"
)

// Model advances a set of node positions through virtual time.
type Model interface {
	// Position returns the current position of node id.
	Position(id int) geo.Point
	// Zone returns the grid zone currently containing node id.
	Zone(id int) geo.ZoneID
	// Step advances every node by dt seconds.
	Step(dt float64)
	// Len returns the number of nodes the model tracks.
	Len() int
}

// ZoneWalkConfig parameterises the paper's zone-based mobility model.
type ZoneWalkConfig struct {
	// MaxSpeed is the upper bound of the uniform speed draw, in m/s.
	// The paper uses 5 m/s.
	MaxSpeed float64
	// MinSpeed floors the draw so a node cannot stall forever. The paper
	// says "between 0 and 5 m/s"; we use a small positive floor.
	MinSpeed float64
	// ExitProb is the probability of crossing a zone boundary into a
	// non-home neighbour zone. The paper uses 0.2.
	ExitProb float64
}

// DefaultZoneWalkConfig returns the paper's §5 settings.
func DefaultZoneWalkConfig() ZoneWalkConfig {
	return ZoneWalkConfig{MaxSpeed: 5, MinSpeed: 0.1, ExitProb: 0.2}
}

func (c ZoneWalkConfig) validate() error {
	if c.MaxSpeed <= 0 {
		return fmt.Errorf("mobility: MaxSpeed %v must be positive", c.MaxSpeed)
	}
	if c.MinSpeed < 0 || c.MinSpeed > c.MaxSpeed {
		return fmt.Errorf("mobility: MinSpeed %v out of [0, MaxSpeed]", c.MinSpeed)
	}
	if c.ExitProb < 0 || c.ExitProb > 1 {
		return fmt.Errorf("mobility: ExitProb %v out of [0,1]", c.ExitProb)
	}
	return nil
}

// walker is the per-node state of a ZoneWalk.
type walker struct {
	pos   geo.Point
	home  geo.ZoneID
	zone  geo.ZoneID
	dirX  float64
	dirY  float64
	speed float64
}

// ZoneWalk implements Model with the paper's bounded zone walk.
type ZoneWalk struct {
	cfg   ZoneWalkConfig
	grid  *geo.Grid
	rng   *simrand.Source
	nodes []walker
}

var _ Model = (*ZoneWalk)(nil)

// NewZoneWalk creates a walk of n nodes on grid. Each node's home zone is
// chosen uniformly at random and the node starts at a uniform point inside
// it, matching the paper's "a sensor node is initially resided in its home
// zone".
func NewZoneWalk(grid *geo.Grid, n int, cfg ZoneWalkConfig, rng *simrand.Source) (*ZoneWalk, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("mobility: negative node count %d", n)
	}
	w := &ZoneWalk{cfg: cfg, grid: grid, rng: rng, nodes: make([]walker, n)}
	for i := range w.nodes {
		home := geo.ZoneID(rng.IntN(grid.NumZones()))
		rect, err := grid.ZoneRect(home)
		if err != nil {
			return nil, fmt.Errorf("mobility: home zone: %w", err)
		}
		w.nodes[i] = walker{
			pos:  geo.Point{X: rng.Uniform(rect.MinX, rect.MaxX), Y: rng.Uniform(rect.MinY, rect.MaxY)},
			home: home,
			zone: home,
		}
		w.resample(&w.nodes[i])
	}
	return w, nil
}

// Position implements Model.
func (w *ZoneWalk) Position(id int) geo.Point { return w.nodes[id].pos }

// Zone implements Model.
func (w *ZoneWalk) Zone(id int) geo.ZoneID { return w.nodes[id].zone }

// Home returns node id's home zone.
func (w *ZoneWalk) Home(id int) geo.ZoneID { return w.nodes[id].home }

// Len implements Model.
func (w *ZoneWalk) Len() int { return len(w.nodes) }

// Step implements Model, advancing every node dt seconds with boundary
// handling. Within one call a node may bounce or cross several times.
func (w *ZoneWalk) Step(dt float64) {
	for i := range w.nodes {
		w.advance(&w.nodes[i], dt)
	}
}

// resample draws a fresh direction and speed for n.
func (w *ZoneWalk) resample(n *walker) {
	theta := w.rng.Uniform(0, 2*math.Pi)
	n.dirX, n.dirY = math.Cos(theta), math.Sin(theta)
	n.speed = w.rng.Uniform(w.cfg.MinSpeed, w.cfg.MaxSpeed)
}

// maxEvents caps boundary sub-steps per advance call: a safety valve
// against degenerate geometry. The cap counts both reflections and
// crossings, so advanceFree and the resume loop share one budget.
const maxEvents = 64

// advance moves n for dt seconds, resolving zone-boundary events as they
// occur. Movement is resolved in sub-steps: each sub-step either completes
// the remaining time or ends at the first boundary hit. Free flight and
// field-edge reflections are delegated to advanceFree; boundaries with a
// neighbouring zone (the only sub-steps that consume RNG draws) are
// resolved here and flight resumes.
func (w *ZoneWalk) advance(n *walker, dt float64) {
	remaining, ev, hit, paused := w.advanceFree(n, dt, 0)
	for paused {
		w.crossOrBounce(n, hit)
		remaining, ev, hit, paused = w.advanceFree(n, remaining, ev+1)
	}
}

// advanceFree moves n until its time budget is exhausted, the sub-step cap
// is reached, or the walk needs an RNG decision. Field-edge hits always
// reflect and draw nothing, so they are resolved inline; a boundary with a
// neighbouring zone pauses the walker instead (paused=true with the pending
// edge), because resolving it consumes draws from the shared mobility
// stream. advanceFree touches only n itself and pure grid geometry.
func (w *ZoneWalk) advanceFree(n *walker, remaining float64, ev int) (left float64, evOut int, hit edge, paused bool) {
	for ; ev < maxEvents && remaining > 1e-12; ev++ {
		rect, err := w.grid.ZoneRect(n.zone)
		if err != nil {
			return 0, ev, 0, false // unreachable: zone is always valid
		}
		hit, tHit := timeToBoundary(n, rect)
		if tHit >= remaining {
			n.pos = n.pos.Add(n.dirX*n.speed*remaining, n.dirY*n.speed*remaining)
			return 0, ev, 0, false
		}
		// Move to the boundary, then decide bounce vs cross.
		n.pos = n.pos.Add(n.dirX*n.speed*tHit, n.dirY*n.speed*tHit)
		remaining -= tHit
		if _, ok := neighborAcross(w.grid, n.zone, hit); ok {
			return remaining, ev, hit, true
		}
		w.reflect(n, rect, hit)
	}
	return 0, ev, 0, false
}

// edge identifies which zone edge was hit.
type edge int

const (
	edgeWest edge = iota + 1
	edgeEast
	edgeSouth
	edgeNorth
)

// timeToBoundary returns the first zone edge n's ray hits and the time to
// reach it at n's speed. If the node is not moving toward any edge (speed 0)
// it returns an infinite time.
func timeToBoundary(n *walker, rect geo.Rect) (edge, float64) {
	best := math.Inf(1)
	var hit edge
	vx, vy := n.dirX*n.speed, n.dirY*n.speed
	if vx < 0 {
		if t := (rect.MinX - n.pos.X) / vx; t < best {
			best, hit = t, edgeWest
		}
	} else if vx > 0 {
		if t := (rect.MaxX - n.pos.X) / vx; t < best {
			best, hit = t, edgeEast
		}
	}
	if vy < 0 {
		if t := (rect.MinY - n.pos.Y) / vy; t < best {
			best, hit = t, edgeSouth
		}
	} else if vy > 0 {
		if t := (rect.MaxY - n.pos.Y) / vy; t < best {
			best, hit = t, edgeNorth
		}
	}
	if best < 0 {
		best = 0 // numeric noise: already on the edge
	}
	return hit, best
}

// crossOrBounce applies the paper's boundary rule at an edge that has a
// neighbouring zone: cross with ExitProb (probability 1 if the neighbour is
// home), otherwise reflect. This is the only place mobility consumes RNG
// draws after construction.
func (w *ZoneWalk) crossOrBounce(n *walker, hit edge) {
	rect, err := w.grid.ZoneRect(n.zone)
	if err != nil {
		return // unreachable: zone is always valid
	}
	neighbor, ok := neighborAcross(w.grid, n.zone, hit)
	cross := false
	if ok {
		if neighbor == n.home {
			cross = true
		} else {
			cross = w.rng.Bool(w.cfg.ExitProb)
		}
	}
	if cross {
		// Nudge across the edge so ZoneAt lands in the neighbour, then
		// resample movement ("after entering a new zone, the sensor repeats
		// the above process").
		const nudge = 1e-6
		switch hit {
		case edgeWest:
			n.pos.X = rect.MinX - nudge
		case edgeEast:
			n.pos.X = rect.MaxX + nudge
		case edgeSouth:
			n.pos.Y = rect.MinY - nudge
		case edgeNorth:
			n.pos.Y = rect.MaxY + nudge
		}
		n.pos = w.grid.Field().Clamp(n.pos)
		n.zone = neighbor
		w.resample(n)
		// Keep the node moving away from the edge it just crossed so it
		// does not immediately re-trigger the same boundary.
		w.pointAwayFromEdge(n, hit)
		return
	}
	w.reflect(n, rect, hit)
}

// reflect bounces n off the hit edge of rect: the normal direction
// component flips and the position is nudged inside. Reflection draws
// nothing, so advanceFree applies it inline.
func (w *ZoneWalk) reflect(n *walker, rect geo.Rect, hit edge) {
	const inset = 1e-6
	switch hit {
	case edgeWest:
		n.dirX = math.Abs(n.dirX)
		n.pos.X = rect.MinX + inset
	case edgeEast:
		n.dirX = -math.Abs(n.dirX)
		n.pos.X = rect.MaxX - inset
	case edgeSouth:
		n.dirY = math.Abs(n.dirY)
		n.pos.Y = rect.MinY + inset
	case edgeNorth:
		n.dirY = -math.Abs(n.dirY)
		n.pos.Y = rect.MaxY - inset
	}
}

// pointAwayFromEdge flips the direction component that would immediately
// carry n back across the edge it entered through.
func (w *ZoneWalk) pointAwayFromEdge(n *walker, entered edge) {
	switch entered {
	case edgeWest: // moved west into new zone: keep moving west-ish
		n.dirX = -math.Abs(n.dirX)
	case edgeEast:
		n.dirX = math.Abs(n.dirX)
	case edgeSouth:
		n.dirY = -math.Abs(n.dirY)
	case edgeNorth:
		n.dirY = math.Abs(n.dirY)
	}
}

// neighborAcross returns the zone on the far side of the given edge of z,
// and whether one exists (false at field boundaries).
func neighborAcross(g *geo.Grid, z geo.ZoneID, hit edge) (geo.ZoneID, bool) {
	row, col := int(z)/g.Cols(), int(z)%g.Cols()
	switch hit {
	case edgeWest:
		if col > 0 {
			return z - 1, true
		}
	case edgeEast:
		if col < g.Cols()-1 {
			return z + 1, true
		}
	case edgeSouth:
		if row > 0 {
			return z - geo.ZoneID(g.Cols()), true
		}
	case edgeNorth:
		if row < g.Rows()-1 {
			return z + geo.ZoneID(g.Cols()), true
		}
	}
	return 0, false
}

// WalkerState is one node's snapshot inside a ZoneWalk.
type WalkerState struct {
	Pos   geo.Point
	Home  geo.ZoneID
	Zone  geo.ZoneID
	DirX  float64
	DirY  float64
	Speed float64
}

// ZoneWalkState is a ZoneWalk's snapshot: every walker plus the mobility RNG
// stream, so post-restore boundary decisions replay the original draws.
type ZoneWalkState struct {
	Nodes []WalkerState
	RNG   simrand.State
}

// ExportState captures the walk for a snapshot.
func (w *ZoneWalk) ExportState() ZoneWalkState {
	st := ZoneWalkState{RNG: w.rng.State()}
	for _, n := range w.nodes {
		st.Nodes = append(st.Nodes, WalkerState{
			Pos: n.pos, Home: n.home, Zone: n.zone,
			DirX: n.dirX, DirY: n.dirY, Speed: n.speed,
		})
	}
	return st
}

// RestoreState overlays a snapshot onto a freshly built walk with the same
// node count and grid.
func (w *ZoneWalk) RestoreState(st ZoneWalkState) error {
	if len(st.Nodes) != len(w.nodes) {
		return fmt.Errorf("mobility: snapshot has %d walkers, walk has %d", len(st.Nodes), len(w.nodes))
	}
	for i, n := range st.Nodes {
		w.nodes[i] = walker{
			pos: n.Pos, home: n.Home, zone: n.Zone,
			dirX: n.DirX, dirY: n.DirY, speed: n.Speed,
		}
	}
	w.rng.Restore(st.RNG)
	return nil
}

// Static is a Model for immobile nodes (sinks deployed at strategic
// locations).
type Static struct {
	grid *geo.Grid
	pts  []geo.Point
}

var _ Model = (*Static)(nil)

// NewStatic returns a model holding the given fixed positions.
func NewStatic(grid *geo.Grid, pts []geo.Point) *Static {
	cp := make([]geo.Point, len(pts))
	copy(cp, pts)
	return &Static{grid: grid, pts: cp}
}

// Position implements Model.
func (s *Static) Position(id int) geo.Point { return s.pts[id] }

// Zone implements Model.
func (s *Static) Zone(id int) geo.ZoneID { return s.grid.ZoneAt(s.pts[id]) }

// Step implements Model (no-op).
func (s *Static) Step(float64) {}

// Len implements Model.
func (s *Static) Len() int { return len(s.pts) }
