package chaos

import (
	"fmt"
	"time"

	"grouphash/internal/client"
	"grouphash/internal/layout"
	"grouphash/internal/wire"
)

// The client-side map oracle: every key a worker tracks is in one of
// four states, and a batch that dies unacked taints its ops into
// the two-outcome states until the next recovery observes which
// outcome survived.
const (
	ackedPresent = iota // server said OK; must be present with the value
	ackedAbsent         // deleted OK, refused, or observed lost while unacked
	taintInsert         // insert's batch died unacked: absent, or present once
	taintDelete         // delete's batch died unacked: old value, or absent
)

type kstate struct {
	val   uint64
	state int
}

// Model is the client side of the serving contract, acked ⇒ durable,
// exactly once: load workers, each owning a disjoint key range, plus an
// insert-only expansion filler, and what the server has promised about
// every key they touched. It survives across server generations and
// processes; only its connections die.
type Model struct {
	workers []*worker // the load workers, then the filler (own key range)
}

// NewModel returns a model of n load workers and the filler.
func NewModel(n int) *Model {
	m := &Model{}
	for i := 0; i <= n; i++ {
		m.workers = append(m.workers, newWorker(i))
	}
	m.workers[n].insertOnly = true
	return m
}

// Load drives the model's load for an event of kind k against the
// server at addr, one connection per worker, until the connection dies
// under them, the server refuses (drain), or stop is closed. An expand
// event adds the insert-only filler. Load returns once every worker
// has, with the first response that contradicts the model.
func (m *Model) Load(addr string, stop <-chan struct{}, k Kind) error {
	load := m.workers[:len(m.workers)-1]
	if k == KindExpand {
		load = m.workers
	}
	errs := make(chan error, len(load))
	for _, w := range load {
		go func(w *worker) {
			c, err := client.Dial(addr, time.Second)
			if err != nil {
				errs <- nil // the event beat the dial; no ops, no model impact
				return
			}
			defer c.Close()
			errs <- w.run(c, stop)
		}(w)
	}
	var first error
	for range load {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

// Full returns how many ops the server has refused for lack of room
// (StatusFull) since the model was made.
func (m *Model) Full() (n int) {
	for _, w := range m.workers {
		n += w.full
	}
	return n
}

// worker owns a disjoint key range and mirrors what the server has
// promised about every key it tracks.
type worker struct {
	id   int
	base uint64 // key-range base; base itself is the put-overwrite slot

	seq    uint64 // next insert suffix
	delSeq uint64 // next delete suffix (always trails seq)
	opn    uint64 // monotone op counter; doubles as every written value
	keys   map[uint64]*kstate
	// free holds keys the server acked absent, deleted or refused, for
	// inserts to reuse before new ones, so the model tracks the live
	// keys and this pool rather than every key ever touched.
	free []uint64
	full int // StatusFull refusals seen

	// The overwrite slot exercises Put: slotAcked is the last value the
	// server acked; a tainted burst widens the allowed set to slotCands
	// until the next recovery pins what survived.
	slotAcked uint64
	slotHas   bool
	slotTaint bool
	slotCands []uint64

	// insertOnly makes the worker a pure-insert flooder (the
	// expansion filler).
	insertOnly bool
}

func newWorker(id int) *worker {
	return &worker{
		id:     id,
		base:   uint64(id+1) << 40,
		seq:    1,
		delSeq: 1,
		keys:   make(map[uint64]*kstate),
	}
}

type planOp struct {
	kind byte // 'i' insert (a put of an absent key), 'd' delete, 'p' put-overwrite
	key  uint64
	val  uint64
}

// growBursts caps the bursts a worker spends growing the model in one
// Load (the filler may spend five times as many); past it, the worker
// only overwrites its slot, so writes flow until the event ends the
// load while a long run's model grows by a bounded amount per
// generation.
const growBursts = 64

// run hammers bursts until the connection dies under it (the event),
// the server starts refusing (drain) or stop is closed; every burst
// past the growBursts cap overwrites the slot only. Every third burst
// travels as an explicit OpBatch frame so the frame path sees the same
// adversity as the pipelined path.
// Responses update the model; a transport error yields no responses,
// so every op of that burst becomes tainted.
func (w *worker) run(c *client.Client, stop <-chan struct{}) error {
	const batch = 16
	bursts := growBursts
	if w.insertOnly {
		bursts *= 5
	}
	for b := 0; ; b++ {
		select {
		case <-stop:
			return nil
		default:
		}
		plan := make([]planOp, 0, batch)
		reqs := make([]wire.Request, 0, batch)
		capped := b >= bursts
		for j := 0; j < batch; j++ {
			w.opn++
			if capped || !w.insertOnly && w.opn%5 == 0 {
				plan = append(plan, planOp{'p', w.base, w.opn})
				reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: w.base}, Value: w.opn})
				continue
			}
			if ks, ok := w.keys[w.base+w.delSeq]; ok && !w.insertOnly && w.opn%7 == 0 {
				k := w.base + w.delSeq
				w.delSeq++
				plan = append(plan, planOp{'d', k, ks.val})
				reqs = append(reqs, wire.Request{Op: wire.OpDelete, Key: layout.Key{Lo: k}})
				continue
			}
			k := w.base + w.seq
			if n := len(w.free); n > 0 {
				k, w.free = w.free[n-1], w.free[:n-1]
			} else {
				w.seq++
			}
			plan = append(plan, planOp{'i', k, w.opn})
			reqs = append(reqs, wire.Request{Op: wire.OpPut, Key: layout.Key{Lo: k}, Value: w.opn})
		}
		var resps []wire.Response
		var err error
		if b%3 == 2 {
			resps, err = c.DoBatch(reqs)
		} else {
			resps, err = c.Do(reqs)
		}
		if err != nil {
			w.taint(plan)
			return nil
		}
		drained := false
		for i, r := range resps {
			op := plan[i]
			switch r.Status {
			case wire.StatusDraining:
				drained = true // refused: the op changed nothing
			case wire.StatusFull:
				w.full++
			}
			switch op.kind {
			case 'i':
				switch r.Status {
				case wire.StatusOK:
					w.keys[op.key] = &kstate{op.val, ackedPresent}
				case wire.StatusDraining, wire.StatusFull:
					w.keys[op.key] = &kstate{op.val, ackedAbsent}
					w.free = append(w.free, op.key)
				default:
					return fmt.Errorf("worker %d: insert %#x: status %d", w.id, op.key, r.Status)
				}
			case 'd':
				prior := w.keys[op.key]
				switch r.Status {
				case wire.StatusOK:
					if prior.state == ackedAbsent {
						return fmt.Errorf("worker %d: delete %#x: OK for an acked-absent key", w.id, op.key)
					}
					prior.state = ackedAbsent
					w.free = append(w.free, op.key)
				case wire.StatusNotFound:
					if prior.state == ackedPresent {
						return fmt.Errorf("worker %d: delete %#x: NotFound for an acked-present key", w.id, op.key)
					}
					prior.state = ackedAbsent
				case wire.StatusDraining: // refused: key keeps its prior state
				default:
					return fmt.Errorf("worker %d: delete %#x: status %d", w.id, op.key, r.Status)
				}
			case 'p':
				switch r.Status {
				case wire.StatusOK:
					w.slotAcked, w.slotHas = op.val, true
					w.slotTaint, w.slotCands = false, nil
				case wire.StatusDraining, wire.StatusFull: // refused: slot unchanged
				default:
					return fmt.Errorf("worker %d: put slot: status %d", w.id, r.Status)
				}
			}
		}
		if drained {
			return nil
		}
	}
}

// taint records a burst whose acks never arrived: each op's outcome is
// now two-valued until the next recovery pins it.
func (w *worker) taint(plan []planOp) {
	for _, op := range plan {
		switch op.kind {
		case 'i':
			w.keys[op.key] = &kstate{op.val, taintInsert}
		case 'd':
			if ks := w.keys[op.key]; ks.state != ackedAbsent {
				ks.state = taintDelete // deleting an absent key changes nothing
			}
		case 'p':
			w.slotTaint = true
			w.slotCands = append(w.slotCands, op.val)
		}
	}
}

// Audit checks a freshly recovered store against the model, reading
// every tracked key through lookup (vals[i] is valid iff found[i]) and
// taking n as the store's item count. Acked-present keys must hold
// their exact value, acked-absent keys must not resurrect, taints
// resolve to what survived (and feed the next generation's
// expectations), and n must equal the distinct present keys — any
// double-applied replay shows up as an excess. The keys go to lookup
// in slices of at most wire.MaxBatchOps, one OpBatch frame each when
// lookup is client.MGet.
func (m *Model) Audit(lookup func(keys []layout.Key) (vals []uint64, found []bool, err error), n uint64) error {
	var expected uint64
	for _, w := range m.workers {
		keys := []layout.Key{{Lo: w.base}} // the overwrite slot, then every tracked key
		for k := range w.keys {
			keys = append(keys, layout.Key{Lo: k})
		}
		for off := 0; off < len(keys); off += wire.MaxBatchOps {
			chunk := keys[off:min(off+wire.MaxBatchOps, len(keys))]
			vals, found, err := lookup(chunk)
			if err != nil {
				return fmt.Errorf("audit lookup: %w", err)
			}
			for i, k := range chunk {
				if k.Lo == w.base {
					err = w.auditSlot(vals[i], found[i])
				} else {
					err = w.auditKey(k.Lo, vals[i], found[i])
				}
				if err != nil {
					return err
				}
				if found[i] {
					expected++
				}
			}
		}
	}
	if n != expected {
		return fmt.Errorf("Len = %d, want %d distinct present keys — replay applied something twice", n, expected)
	}
	return nil
}

// auditKey judges one key against its state and pins a taint to what
// survived; a taint that did not survive frees its key.
func (w *worker) auditKey(k, v uint64, ok bool) error {
	switch ks := w.keys[k]; ks.state {
	case ackedPresent:
		if !ok || v != ks.val {
			return fmt.Errorf("ACKED WRITE LOST: key %#x = (%d, %v), want (%d, true)", k, v, ok, ks.val)
		}
	case ackedAbsent:
		if ok {
			return fmt.Errorf("PHANTOM KEY: %#x was deleted/refused, resurrected with %d", k, v)
		}
	case taintInsert, taintDelete:
		switch {
		case !ok:
			ks.state = ackedAbsent
			w.free = append(w.free, k)
		case v != ks.val:
			return fmt.Errorf("tainted key %#x has impossible value %d (want %d)", k, v, ks.val)
		default:
			ks.state = ackedPresent
		}
	}
	return nil
}

// auditSlot judges the overwrite slot: its last acked value, or — after
// a tainted burst — that or any in-flight value, or absent if nothing
// was ever acked.
func (w *worker) auditSlot(v uint64, ok bool) error {
	switch {
	case w.slotTaint:
		if ok {
			allowed := w.slotHas && v == w.slotAcked
			for _, cand := range w.slotCands {
				allowed = allowed || v == cand
			}
			if !allowed {
				return fmt.Errorf("slot %#x = %d, not among acked %d or in-flight %v", w.base, v, w.slotAcked, w.slotCands)
			}
			w.slotAcked, w.slotHas = v, true
		} else if w.slotHas {
			return fmt.Errorf("ACKED WRITE LOST: slot %#x (last acked %d) vanished", w.base, w.slotAcked)
		}
		w.slotTaint, w.slotCands = false, nil
	case w.slotHas:
		if !ok || v != w.slotAcked {
			return fmt.Errorf("ACKED WRITE LOST: slot %#x = (%d, %v), want (%d, true)", w.base, v, ok, w.slotAcked)
		}
	default:
		if ok {
			return fmt.Errorf("PHANTOM KEY: slot %#x never acked yet present with %d", w.base, v)
		}
	}
	return nil
}
