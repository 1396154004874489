// Package chaos is the repository's one crash harness: it composes
// every fault injector — simulated crashes (server.Abort), power cuts
// that tear the oplog's unsynced tail, also between a snapshot's
// durable steps, crashes in the middle of replay, sticky fsync faults,
// graceful drains, on-demand snapshot/reload cycles and forced online
// expansions — into seeded schedules run against a live serving stack,
// with a client-side map oracle (Model) auditing exactly-once semantics
// after every event. A schedule is reproducible from its (engine, seed)
// pair alone, so any failure prints a one-line reproduction.
//
// The package runs in-process (so -race watches every interleaving);
// cmd/ghchaos plays the same schedule generator against real processes
// and SIGKILL, and drives and audits them with the same Model over the
// wire.
package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind is the class of one chaos event: how a serving generation is
// perturbed mid-load and how it ends.
type Kind int

// The event classes. Every generation boots a recovered server, loads
// it, applies the event, and ends with the server down; recovery +
// model audit precede the next event.
const (
	// KindKill aborts the server mid-load (in-process kill -9); the
	// oplog keeps whatever the crash left.
	KindKill Kind = iota
	// KindKillTear cuts power mid-load: an fsync fault armed at the
	// crash instant fails the commit in flight (or the next), which
	// leaves its records written but never durable; once it has failed
	// the server is aborted and the active oplog segment torn the way a
	// power failure would: the fsynced prefix survives, a random amount
	// of the unsynced tail is lost, sometimes trailing garbage appears.
	KindKillTear
	// KindDrain shuts down gracefully mid-load: buffered writes are
	// refused with StatusDraining, a final snapshot is cut, the oplog
	// is truncated — the acked/refused straddle is the point.
	KindDrain
	// KindFsyncFault makes every oplog fsync fail (sticky media
	// error): no affected write may be acked, and the server must
	// self-drain rather than serve as a zombie.
	KindFsyncFault
	// KindSnapshot cuts an on-demand image under full load, then
	// kills the server — recovery starts from the fresh image plus
	// the log suffix behind it.
	KindSnapshot
	// KindExpand floods inserts until the engine completes an online
	// expansion under load (the flagship's stop-less growth), then
	// kills the server; fixed-capacity engines get the same churn
	// burst without the expansion wait.
	KindExpand
	// KindCutRotated takes a snapshot's first durable step under load —
	// the log rotated inside the capture's cut — then cuts power as
	// KindKillTear does: no image is written.
	KindCutRotated
	// KindCutImaged cuts power once the snapshot's image is durable,
	// before the log segments it covers are truncated.
	KindCutImaged
	// KindCutTruncated cuts power right after a completed snapshot and
	// truncation. The three cut kinds are never drawn by NewSchedule;
	// schedules that pin a snapshot's crash points list them.
	KindCutTruncated
)

// String names the kind.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

var kindNames = [...]string{"kill", "kill+tear", "drain", "fsync-fault", "snapshot", "expand",
	"cut-rotated", "cut-imaged", "cut-truncated"}

// Event is one scheduled perturbation.
type Event struct {
	// Kind is the perturbation class.
	Kind Kind
	// Delay is how long the generation serves load before the event
	// triggers.
	Delay time.Duration
}

// String renders the event compactly ("kill@12ms").
func (e Event) String() string { return fmt.Sprintf("%s@%s", e.Kind, e.Delay) }

// NewSchedule derives n events from seed. The mix is weighted toward
// crash classes (the claims under audit are crash claims) but every
// class appears with meaningful probability, and trigger delays are
// scattered so events land at different phases of a generation's
// load. Same (seed, n) → identical schedule.
func NewSchedule(seed int64, n int) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for i := range events {
		var k Kind
		switch p := rng.Intn(100); {
		case p < 22:
			k = KindKill
		case p < 44:
			k = KindKillTear
		case p < 58:
			k = KindDrain
		case p < 72:
			k = KindFsyncFault
		case p < 86:
			k = KindSnapshot
		default:
			k = KindExpand
		}
		events[i] = Event{
			Kind:  k,
			Delay: time.Duration(1+rng.Intn(20)) * time.Millisecond,
		}
	}
	return events
}
