package core

import (
	"grouphash/internal/hashtab"
	"grouphash/internal/layout"
)

// Insert stores (k, v), following Algorithm 1 of the paper:
//
//  1. hash to level-1 cell k; if empty, write the payload there,
//     persist it, atomically set the bitmap/meta word, persist it,
//     atomically bump count, persist it;
//  2. otherwise scan the matching level-2 group for an empty cell and
//     run the same commit protocol there;
//  3. if the group is full, the table needs expansion: ErrTableFull.
//
// In two-choice mode (§4.4 extension) the key has a second candidate
// level-1 cell and a second matched group; both are tried before the
// insert fails.
//
// A crash before the commit-word flip leaves a torn payload behind a
// zero bitmap, which Recover scrubs; a crash before the count update
// leaves a stale count, which Recover recomputes. Neither compromises
// consistency (§3.3).
func (t *Table) Insert(k layout.Key, v uint64) error {
	if !t.l.ValidKey(k) {
		return hashtab.ErrInvalidKey
	}
	if !t.placeIn(t.cur(), k, v) {
		return hashtab.ErrTableFull
	}
	t.setCount(t.Len() + 1)
	return nil
}

// placeIn runs the cell commit protocol against one view, without the
// count update, reporting whether the item was placed. Every insert
// path — sequential, concurrent, and the migration of an online
// expansion (which places into the new view before it is current) —
// funnels through here, so the commit protocol cannot drift between
// them.
func (t *Table) placeIn(vw *view, k layout.Key, v uint64) bool {
	i1, i2, n := t.homesIn(vw, k)
	if !vw.tab1.Occupied(i1) {
		vw.tab1.InsertAt(i1, k, v)
		return true
	}
	if n == 2 && !vw.tab1.Occupied(i2) {
		vw.tab1.InsertAt(i2, k, v)
		return true
	}
	if t.placeInGroup(vw, t.groupStart(i1), k, v) {
		return true
	}
	if n == 2 && t.groupStart(i2) != t.groupStart(i1) {
		return t.placeInGroup(vw, t.groupStart(i2), k, v)
	}
	return false
}

func (t *Table) placeInGroup(vw *view, j uint64, k layout.Key, v uint64) bool {
	if vw.fp != nil {
		return t.placeInGroupFP(vw, j, k, v)
	}
	for i := j; i < j+t.gsz; i++ {
		if !vw.tab2.Occupied(i) {
			vw.tab2.InsertAt(i, k, v)
			return true
		}
	}
	return false
}

// Lookup returns the value stored under k, following Algorithm 2:
// check the level-1 cell, then scan the matching level-2 group. The
// level-2 scan runs even when the level-1 cell is empty, because an
// item placed in level 2 stays there if its level-1 home is later
// deleted. Two-choice mode checks both candidate cells and groups.
func (t *Table) Lookup(k layout.Key) (uint64, bool) {
	var tl fpTally
	v, ok := t.lookupIn(t.cur(), k, &tl)
	t.publishTally(&tl)
	return v, ok
}

// lookupIn runs Algorithm 2 against one view, tallying its filtered
// group scans in tl. The concurrent wrapper uses it directly to probe
// the NEW arrays of an in-flight expansion for stripes whose migration
// has completed.
func (t *Table) lookupIn(vw *view, k layout.Key, tl *fpTally) (uint64, bool) {
	i1, i2, n := t.homesIn(vw, k)
	if vw.tab1.Matches(i1, k) {
		return vw.tab1.Value(i1), true
	}
	if n == 2 && vw.tab1.Matches(i2, k) {
		return vw.tab1.Value(i2), true
	}
	if v, ok := t.lookupInGroup(vw, t.groupStart(i1), k, tl); ok {
		return v, true
	}
	if n == 2 && t.groupStart(i2) != t.groupStart(i1) {
		return t.lookupInGroup(vw, t.groupStart(i2), k, tl)
	}
	return 0, false
}

func (t *Table) lookupInGroup(vw *view, j uint64, k layout.Key, tl *fpTally) (uint64, bool) {
	if i, ok := t.findInGroup(vw, j, k, tl); ok {
		return vw.tab2.Value(i), true
	}
	return 0, false
}

// findInGroup locates the first cell of the level-2 group starting at j
// that holds k. With the fingerprint sidecar active it screens the
// group's tag words first and dereferences only candidate cells;
// otherwise it runs the paper's full-group scan. All group probes —
// lookup, delete, in-place update — funnel through here, so the two
// probe strategies cannot drift. The filtered scan's work goes to tl.
func (t *Table) findInGroup(vw *view, j uint64, k layout.Key, tl *fpTally) (uint64, bool) {
	if vw.fp != nil {
		return t.findInGroupFP(vw, j, k, tl)
	}
	for i := j; i < j+t.gsz; i++ {
		if vw.tab2.Matches(i, k) {
			return i, true
		}
	}
	return 0, false
}

// Delete removes k, following Algorithm 3. The commit word is
// atomically cleared and persisted BEFORE the payload is scrubbed:
// once the bitmap is durably zero the delete has logically completed,
// and a crash between the two steps leaves only a stale payload behind
// a zero bitmap for Recover to scrub (§3.4's ordering argument).
func (t *Table) Delete(k layout.Key) bool {
	var tl fpTally
	found := t.removeIn(t.cur(), k, &tl)
	t.publishTally(&tl)
	if !found {
		return false
	}
	t.setCount(t.Len() - 1)
	return true
}

// removeIn runs the cell retire protocol (clear commit word, scrub
// payload) against one view, without the count update, reporting
// whether the key was found. It is the deletion twin of placeIn and the
// single implementation both Table.Delete and the concurrent applyRun
// build on, so the sequential and concurrent paths cannot drift. Its
// filtered group scans are tallied in tl.
func (t *Table) removeIn(vw *view, k layout.Key, tl *fpTally) bool {
	i1, i2, n := t.homesIn(vw, k)
	if vw.tab1.Matches(i1, k) {
		vw.tab1.DeleteAt(i1)
		return true
	}
	if n == 2 && vw.tab1.Matches(i2, k) {
		vw.tab1.DeleteAt(i2)
		return true
	}
	if t.removeInGroup(vw, t.groupStart(i1), k, tl) {
		return true
	}
	if n == 2 && t.groupStart(i2) != t.groupStart(i1) {
		return t.removeInGroup(vw, t.groupStart(i2), k, tl)
	}
	return false
}

func (t *Table) removeInGroup(vw *view, j uint64, k layout.Key, tl *fpTally) bool {
	i, ok := t.findInGroup(vw, j, k, tl)
	if !ok {
		return false
	}
	vw.tab2.DeleteAt(i)
	vw.fpStore(i, 0)
	return true
}

// Update overwrites the value of an existing key in place and persists
// it. Values are a single failure-atomic word, so no further protocol
// is needed: a crash exposes either the old or the new value, both
// consistent. Returns false if the key is absent. (Extension beyond the
// paper, which only defines insert/query/delete.)
func (t *Table) Update(k layout.Key, v uint64) bool {
	var tl fpTally
	ok := t.updateIn(t.cur(), k, v, &tl)
	t.publishTally(&tl)
	return ok
}

// updateIn is Update against one view, tallying its filtered group
// scans in tl.
func (t *Table) updateIn(vw *view, k layout.Key, v uint64, tl *fpTally) bool {
	if cells, idx, ok := t.locateIn(vw, k, tl); ok {
		addr := t.l.ValOff(cells.Addr(idx))
		t.mem.AtomicWrite8(addr, v)
		t.mem.Persist(addr, layout.WordSize)
		return true
	}
	return false
}

// locateIn finds the cell currently holding k under vw.
func (t *Table) locateIn(vw *view, k layout.Key, tl *fpTally) (*hashtab.Cells, uint64, bool) {
	i1, i2, n := t.homesIn(vw, k)
	if vw.tab1.Matches(i1, k) {
		return &vw.tab1, i1, true
	}
	if n == 2 && vw.tab1.Matches(i2, k) {
		return &vw.tab1, i2, true
	}
	for _, j := range [2]uint64{t.groupStart(i1), t.groupStart(i2)} {
		if i, ok := t.findInGroup(vw, j, k, tl); ok {
			return &vw.tab2, i, true
		}
		if n != 2 || t.groupStart(i2) == t.groupStart(i1) {
			break
		}
	}
	return nil, 0, false
}

// Range calls fn for every stored item until fn returns false. Order is
// unspecified. (Extension beyond the paper; used by expansion and the
// verification tooling.)
func (t *Table) Range(fn func(k layout.Key, v uint64) bool) {
	vw := t.cur()
	for _, cells := range [2]*hashtab.Cells{&vw.tab1, &vw.tab2} {
		for i := uint64(0); i < cells.N; i++ {
			if cells.Occupied(i) {
				if !fn(cells.Key(i), cells.Value(i)) {
					return
				}
			}
		}
	}
}
