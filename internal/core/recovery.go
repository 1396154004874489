package core

import "grouphash/internal/hashtab"

// Recover rebuilds a consistent state after a crash, implementing
// Algorithm 4 of the paper:
//
//   - scan every cell of both levels;
//   - for cells whose bitmap is 0, reset (scrub) the key/value payload
//     so partially written or partially deleted items disappear;
//   - count the cells whose bitmap is 1 and rewrite the persistent
//     count with the correct value.
//
// The scan is sequential over contiguous cell arrays, which is why
// recovery costs under 1% of the corresponding load time (Table 3).
//
// As an optimisation over the literal pseudo-code, already-zero
// payloads are not rewritten (a scrub store + persist is only issued
// when the payload actually holds residue); this preserves Algorithm
// 4's post-state exactly while keeping recovery read-mostly.
func (t *Table) Recover() (hashtab.RecoveryReport, error) {
	var rep hashtab.RecoveryReport
	vw := t.cur()
	count := uint64(0)
	for _, cells := range [2]*hashtab.Cells{&vw.tab1, &vw.tab2} {
		for i := uint64(0); i < cells.N; i++ {
			rep.CellsScanned++
			if cells.Occupied(i) {
				count++
				continue
			}
			if !cells.PayloadZero(i) {
				cells.ClearPayload(i)
				rep.CellsCleared++
			}
		}
	}
	if t.Len() != count {
		rep.CountCorrected = true
	}
	// Always rewrite the count, like Algorithm 4 (line 19): the scan
	// result is authoritative.
	t.setCount(count)
	if vw.fp != nil {
		// The crash may have changed which cells are durably occupied;
		// rederive the sidecar's tags from the cells the scan just
		// certified.
		vw.buildFp(t.l)
	}
	return rep, nil
}

// CheckConsistency verifies the table's invariants without repairing
// anything (verification tooling; not part of the paper's algorithms):
//
//   - the persistent count equals the number of occupied cells;
//   - every empty cell has a zero payload;
//   - every occupied cell's key hashes to the group it is stored in
//     (level-1 items to their exact cell; level-2 items to the matching
//     group);
//   - every occupied cell's meta tag matches its key;
//   - when the fingerprint sidecar is on, every level-2 cell's DRAM tag
//     agrees with the cell: the key's fingerprint for occupied cells,
//     zero for empty ones.
//
// It returns a list of human-readable violations, empty when the table
// is consistent.
func (t *Table) CheckConsistency() []string {
	var bad []string
	vw := t.cur()
	count := uint64(0)
	for i := uint64(0); i < vw.tab1.N; i++ {
		commit, k, _ := vw.tab1.Snapshot(i)
		if t.l.Occupied(commit) {
			count++
			i1, i2, n := t.homesIn(vw, k)
			if i1 != i && (n != 2 || i2 != i) {
				bad = append(bad, "level-1 cell holds a key that does not hash to it")
			}
			if !t.l.CommitMatches(commit, k) {
				bad = append(bad, "level-1 commit word does not match stored key")
			}
		} else if !vw.tab1.PayloadZero(i) {
			bad = append(bad, "empty level-1 cell has a non-zero payload")
		}
	}
	for i := uint64(0); i < vw.tab2.N; i++ {
		commit, k, _ := vw.tab2.Snapshot(i)
		if vw.fp != nil {
			want := uint64(0)
			if t.l.Occupied(commit) {
				want = t.fpTag(k)
			}
			if vw.fpLoad(i) != want {
				bad = append(bad, "fingerprint sidecar disagrees with level-2 cell")
			}
		}
		if t.l.Occupied(commit) {
			count++
			i1, i2, n := t.homesIn(vw, k)
			inG1 := t.groupStart(i1) == t.groupStart(i)
			inG2 := n == 2 && t.groupStart(i2) == t.groupStart(i)
			if !inG1 && !inG2 {
				bad = append(bad, "level-2 cell holds a key outside its group")
			}
			if !t.l.CommitMatches(commit, k) {
				bad = append(bad, "level-2 commit word does not match stored key")
			}
		} else if !vw.tab2.PayloadZero(i) {
			bad = append(bad, "empty level-2 cell has a non-zero payload")
		}
	}
	if t.Len() != count {
		bad = append(bad, "persistent count does not match occupied cells")
	}
	return bad
}
