package radio

import (
	"math"

	"dftmsn/internal/geo"
)

// cell is one square of the uniform grid: the radios filed there plus the
// transmissions currently on the air from inside it.
type cell struct {
	radios []*Radio
	txs    []*transmission
}

// cellIndex is a uniform-grid spatial index over the medium's radios and
// in-flight transmissions. The field is partitioned into square cells of
// side cellSize; because cellSize is at least the transmission range, every
// radio within range of a point is found in the 3×3 block of cells around
// that point.
//
// Cells live in a dense row-major window [minCx, minCx+w) × [minCy,
// minCy+h) that grows (with margin) to cover every position ever filed, so
// steady-state lookups are pure arithmetic — no map probes on the per-frame
// hot path. Mobility models keep nodes inside a bounded field, so the
// window stops growing after the first few refreshes.
//
// Invariants:
//   - cellSize >= Config.RangeM (established at construction; the 3×3
//     neighborhood query is only complete under this bound).
//   - Every attached radio is a member of exactly the cell containing its
//     last-refreshed position; Medium.RefreshPositions re-files radios whose
//     position function has moved them across a cell boundary, and must be
//     called after every batch of position mutations (the scenario's
//     mobility ticker does so right after stepping the walk).
type cellIndex struct {
	cellSize     float64
	minCx, minCy int32
	w, h         int32
	cells        []cell
}

func newCellIndex(cellSize float64) *cellIndex {
	return &cellIndex{cellSize: cellSize}
}

// cellKeyFor packs the cell coordinates of p into one stable key.
// Coordinates are floored, so negative positions fall into the correct cell
// too. Keys survive window growth, unlike raw slot indices.
func (ci *cellIndex) cellKeyFor(p geo.Point) int64 {
	cx := int32(math.Floor(p.X / ci.cellSize))
	cy := int32(math.Floor(p.Y / ci.cellSize))
	return packCell(cx, cy)
}

func packCell(cx, cy int32) int64 {
	return int64(cx)<<32 | int64(uint32(cy))
}

func unpackCell(key int64) (cx, cy int32) {
	return int32(key >> 32), int32(uint32(key))
}

// slot maps cell coordinates to a dense window position, or -1 when the
// window does not cover them yet.
func (ci *cellIndex) slot(cx, cy int32) int {
	cx -= ci.minCx
	cy -= ci.minCy
	if cx < 0 || cx >= ci.w || cy < 0 || cy >= ci.h {
		return -1
	}
	return int(cy)*int(ci.w) + int(cx)
}

// ensure returns the slot for (cx, cy), growing the window to cover it if
// needed. Growth re-files cells wholesale (slice headers move, per-cell
// order is preserved) and adds a margin so a node oscillating at the edge
// does not trigger a rebuild per tick.
func (ci *cellIndex) ensure(cx, cy int32) int {
	if s := ci.slot(cx, cy); s >= 0 {
		return s
	}
	minCx, minCy := ci.minCx, ci.minCy
	maxCx, maxCy := ci.minCx+ci.w-1, ci.minCy+ci.h-1
	if ci.w == 0 { // first insertion: window is just the new cell
		minCx, minCy, maxCx, maxCy = cx, cy, cx, cy
	} else {
		if cx < minCx {
			minCx = cx
		}
		if cx > maxCx {
			maxCx = cx
		}
		if cy < minCy {
			minCy = cy
		}
		if cy > maxCy {
			maxCy = cy
		}
	}
	const margin = 2
	minCx -= margin
	minCy -= margin
	w := maxCx - minCx + 1 + margin
	h := maxCy - minCy + 1 + margin

	cells := make([]cell, int(w)*int(h))
	for i := range ci.cells {
		c := &ci.cells[i]
		if len(c.radios) == 0 && len(c.txs) == 0 {
			continue
		}
		ocx := ci.minCx + int32(i)%ci.w
		ocy := ci.minCy + int32(i)/ci.w
		cells[int(ocy-minCy)*int(w)+int(ocx-minCx)] = *c
	}
	ci.minCx, ci.minCy, ci.w, ci.h, ci.cells = minCx, minCy, w, h, cells
	return ci.slot(cx, cy)
}

// add files r under the cell containing p and records the key on the radio.
func (ci *cellIndex) add(r *Radio, p geo.Point) {
	key := ci.cellKeyFor(p)
	r.cellKey = key
	s := ci.ensure(unpackCell(key))
	ci.cells[s].radios = append(ci.cells[s].radios, r)
}

// move re-files r under newKey. Cell slices are unordered (swap-remove), so
// hearer lists are re-sorted by attach order after each rebuild.
func (ci *cellIndex) move(r *Radio, newKey int64) {
	old := ci.slot(unpackCell(r.cellKey))
	members := ci.cells[old].radios
	for i, m := range members {
		if m == r {
			last := len(members) - 1
			members[i] = members[last]
			members[last] = nil
			ci.cells[old].radios = members[:last]
			break
		}
	}
	r.cellKey = newKey
	s := ci.ensure(unpackCell(newKey))
	ci.cells[s].radios = append(ci.cells[s].radios, r)
}

// window clips the 3×3 block around p to the dense window, returning the
// starting slot plus the block extent. Cells outside the window are
// provably empty, so clipping never drops a candidate.
func (ci *cellIndex) window(p geo.Point) (s0 int, nx, ny int32) {
	cx := int32(math.Floor(p.X/ci.cellSize)) - 1
	cy := int32(math.Floor(p.Y/ci.cellSize)) - 1
	x0, y0 := cx-ci.minCx, cy-ci.minCy
	x1, y1 := x0+3, y0+3
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > ci.w {
		x1 = ci.w
	}
	if y1 > ci.h {
		y1 = ci.h
	}
	if x0 >= x1 || y0 >= y1 {
		return 0, 0, 0
	}
	return int(y0)*int(ci.w) + int(x0), x1 - x0, y1 - y0
}

// inRange appends to buf every radio other than self, filed in the 3×3 cell
// block around p, whose position is within rangeSq of p, and returns it.
// The result is unordered; callers needing the medium's attach order (the
// linear scan's iteration order, which fixes RNG draw order) must sort by
// Radio.idx.
func (ci *cellIndex) inRange(self *Radio, p geo.Point, rangeSq float64, buf []*Radio) []*Radio {
	s0, nx, ny := ci.window(p)
	for y := int32(0); y < ny; y++ {
		row := s0 + int(y)*int(ci.w)
		for x := int32(0); x < nx; x++ {
			for _, r := range ci.cells[row+int(x)].radios {
				if r != self && p.DistSq(r.position()) <= rangeSq {
					buf = append(buf, r)
				}
			}
		}
	}
	return buf
}

// txAdd files an in-flight transmission under its source cell.
func (ci *cellIndex) txAdd(tx *transmission) {
	s := ci.ensure(unpackCell(tx.cellKey))
	ci.cells[s].txs = append(ci.cells[s].txs, tx)
}

// txRemove swap-removes tx from its source cell's active list.
func (ci *cellIndex) txRemove(tx *transmission) {
	s := ci.slot(unpackCell(tx.cellKey))
	members := ci.cells[s].txs
	for i, t := range members {
		if t == tx {
			last := len(members) - 1
			members[i] = members[last]
			members[last] = nil
			ci.cells[s].txs = members[:last]
			return
		}
	}
}

// busy reports whether any transmission not from self is on the air within
// rangeSq of pos, scanning only the 3×3 neighborhood.
func (ci *cellIndex) busy(pos geo.Point, self *Radio, rangeSq float64) bool {
	s0, nx, ny := ci.window(pos)
	for y := int32(0); y < ny; y++ {
		row := s0 + int(y)*int(ci.w)
		for x := int32(0); x < nx; x++ {
			for _, tx := range ci.cells[row+int(x)].txs {
				if tx.src != self && tx.srcPos.DistSq(pos) <= rangeSq {
					return true
				}
			}
		}
	}
	return false
}

// sortByAttachOrder orders radios by attach index. Hearer lists are tiny (a
// range disc's occupants), so an insertion sort beats sort.Slice and
// allocates nothing.
func sortByAttachOrder(rs []*Radio) {
	for i := 1; i < len(rs); i++ {
		r := rs[i]
		j := i - 1
		for j >= 0 && rs[j].idx > r.idx {
			rs[j+1] = rs[j]
			j--
		}
		rs[j+1] = r
	}
}
