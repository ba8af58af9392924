// Package yield provides named interleaving points inside the concurrent
// algorithms so tests can force the specific thread suspensions the paper
// reasons about (for example: "a helper executes the descriptor CAS of
// Line 93 and gets suspended before the tail CAS of Line 94").
//
// In production the hook is nil and each point costs one atomic load and a
// predictable branch — negligible next to the CAS traffic of the
// algorithms themselves, and it keeps the instrumented and benchmarked
// code identical, so what we test is what we measure.
//
// Tests install a Hook with Set and drive victims deterministically:
//
//	yield.Set(func(p yield.Point, caller, owner int) {
//	    if p == yield.KPAfterStateCASEnq && caller == victim {
//	        <-resume // park the victim at the paper's Line 93/94 gap
//	    }
//	})
//	defer yield.Set(nil)
package yield

import "sync/atomic"

// Point identifies one instrumented location in the algorithms. The names
// reference the source lines of the paper's Figures 4 and 6 so tests read
// like the correctness argument in §3.2.
type Point int

// Instrumented locations.
const (
	// KPBeforeAppend fires just before the enqueue-linearizing CAS that
	// appends a node to the list (paper Line 74).
	KPBeforeAppend Point = iota
	// KPAfterAppend fires just after a successful append CAS (Line 74),
	// before help_finish_enq runs.
	KPAfterAppend
	// KPAfterStateCASEnq fires between the descriptor-completion CAS
	// (Line 93) and the tail-fixing CAS (Line 94) in help_finish_enq —
	// the suspension window the paper's §3.2 argument is about.
	KPAfterStateCASEnq
	// KPBeforeTailCAS fires immediately before the tail CAS (Line 94).
	KPBeforeTailCAS
	// KPBeforeEmptyCAS fires just before the CAS that completes a
	// dequeue with the empty result (Line 120) — the race window the
	// paper's Stage 1 exists to close.
	KPBeforeEmptyCAS
	// KPBeforeDeqTidCAS fires just before the dequeue-linearizing CAS
	// that claims the sentinel's deqTid (Line 135).
	KPBeforeDeqTidCAS
	// KPAfterDeqTidCAS fires just after a successful deqTid CAS.
	KPAfterDeqTidCAS
	// KPAfterStateCASDeq fires between the descriptor-completion CAS
	// (Line 149) and the head-fixing CAS (Line 150) in help_finish_deq.
	KPAfterStateCASDeq
	// KPBeforeHeadCAS fires immediately before the head CAS (Line 150).
	KPBeforeHeadCAS
	// KPHelpScan fires once per help() descriptor inspection (Line 38).
	KPHelpScan
	// KPEnqRetry fires at the top of every help_enq loop iteration
	// (Line 68), and KPDeqRetry at the top of every help_deq iteration
	// (Line 110). They make retry loops visible to the deterministic
	// scheduler (internal/explore), which needs every bounded stretch
	// of execution to end at an instrumented point.
	KPEnqRetry
	KPDeqRetry
	// KPFastEnqAttempt fires at the top of each bounded lock-free
	// enqueue attempt of the fast-path engine (WithFastPath), before the
	// tail/next reads; KPFastDeqAttempt is the dequeue-side analogue.
	KPFastEnqAttempt
	KPFastDeqAttempt
	// KPFastBeforeAppend fires between a fast-path enqueuer's tail/next
	// snapshot and its append CAS — the window in which a concurrent
	// (fast or slow) append invalidates the snapshot.
	KPFastBeforeAppend
	// KPFastAfterAppend fires after a successful fast-path append,
	// before the enqueuer's help_finish_enq call — the window in which
	// the node dangles with enqTid = noTID and slow-path helpers must
	// advance tail past it without finding a descriptor.
	KPFastAfterAppend
	// KPFastBeforeDeqTidCAS fires just before a fast-path dequeuer's
	// deqTid claim CAS (racing slow-path Stage 2 claims on the same
	// sentinel); KPFastAfterDeqTidCAS fires after a successful claim,
	// before the head fix — the window in which the sentinel is locked
	// by fastTID and helpers must advance head without a descriptor.
	KPFastBeforeDeqTidCAS
	KPFastAfterDeqTidCAS
	// KPChainAfterAppend fires after a batch enqueuer's successful
	// append CAS published its whole pre-linked chain, before tail is
	// swung past the chain — the window in which the chain dangles
	// (fast chains: every node enqTid = noTID and helpers step tail
	// node by node; slow chains: one descriptor for the head and
	// helpers jump tail to the chain's last node).
	KPChainAfterAppend
	// KPChainBeforeSwing fires before each tail CAS of a fast batch
	// enqueuer's chain walk (advanceTailPastChain) — between these
	// CASes concurrent helpers may have advanced tail into the chain.
	KPChainBeforeSwing
	// MSBeforeAppend / MSBeforeHeadCAS are the analogous windows in the
	// Michael–Scott baseline, used by its own race tests.
	MSBeforeAppend
	MSBeforeHeadCAS
	// SHEnqTicket fires in the sharded frontend (internal/sharded)
	// between an enqueuer's ticket fetch-and-add and its shard append —
	// the handoff window in which the ticket is spoken for but no
	// element is visible, so a dequeuer dispatched to the same shard
	// legitimately observes it empty. owner is the shard index.
	SHEnqTicket
	// SHDeqTicket fires between a dequeuer's ticket fetch-and-add and
	// its shard pop — the window in which later tickets of the same
	// residue may overtake it inside the shard. owner is the shard
	// index.
	SHDeqTicket
	// WQPrepare fires in the blocking dequeue loop (internal/waiter)
	// after the consumer registered as a waiter and read its wait key,
	// before the post-registration recheck — the window in which a
	// concurrent enqueue-notify must be observed either by the recheck
	// or by the sequence bump.
	WQPrepare
	// WQBeforePark fires immediately before the consumer commits to the
	// channel select that parks it — after the under-lock sequence
	// recheck passed. A notify arriving here must still wake it (via the
	// wake channel it listed under the lock).
	WQBeforePark
	// WQAfterWake fires right after a parked consumer is woken (by a
	// notify broadcast, close, or ctx cancellation), before it re-probes
	// the queue.
	WQAfterWake
	// WQNotify fires in the enqueue path after the element is visible
	// (the linearizing CAS succeeded) and after the waiter-presence
	// probe, just before/at the conditional wake. owner is -1.
	WQNotify
	// WQCloseBroadcast fires inside Close after the closed flag is set,
	// before the broadcast that wakes all parked waiters.
	WQCloseBroadcast
	// RGEnqClaim fires in the ring-segment backend (internal/ring)
	// between an enqueuer's slot-claim FAA and its commit CAS — the
	// window in which the slot index is spoken for and the value is
	// written but not yet visible, so a dequeuer reaching the same index
	// legitimately burns it (empty→unsafe) and the enqueuer must re-claim.
	RGEnqClaim
	// RGDeqClaim fires between a dequeuer's slot-claim FAA and its state
	// inspection — the window in which the claimed slot may flip from
	// empty to committed under the dequeuer, deciding burn vs consume.
	RGDeqClaim
	// RGSegAdvance fires before each segment-boundary CAS of the ring
	// backend (next-segment install, tail swing, head swing) — a thread
	// frozen here leaves the boundary crossing for others to finish.
	RGSegAdvance
	// RGRetry fires at the top of each ring enqueue/dequeue attempt loop,
	// making the (burn-bounded) retries visible to the step-bound
	// watchdog.
	RGRetry
	// RGHelpPublish fires in the ring backend's wait-free slow path just
	// after an operation that exhausted its fast-path patience published
	// its helping record (the phase-numbered request descriptor) and
	// raised the slow gate, before it assigns itself a slot ticket — a
	// thread frozen here leaves a pending record with no ticket, which
	// helpers skip and nobody waits on.
	RGHelpPublish
	// RGHelpClaim fires between a slow-path operation's claim FAA and
	// its ticket publish — the one unhelpable stretch of the slow path:
	// the claim exists but is not yet public, so a thread frozen here
	// leaves a slot peers burn past (enqueue) or skip (dequeue), never
	// one they wait on.
	RGHelpClaim
	// RGHelpTicket fires between a slow-path operation's ticket publish
	// (the versioned word naming the claimed segment and slot) and its
	// own reserve/resolve of that slot — THE helping window: a thread
	// frozen here has named exactly the slot its operation will use, and
	// any helper can finish the operation from the ticket alone.
	RGHelpTicket
	// RGHelpScan fires once per inspection of a ticketed helping record
	// when a thread entering an operation sees the slow gate raised
	// (caller is the helper, owner the record's thread): after the
	// helper read the ticket, before it announces the ticket's segment
	// and re-validates — a helper frozen here holds a ticket that may
	// die, and a segment that may be recycled, before it resumes.
	RGHelpScan
	// RGHelpFinalize fires immediately before the record-finalizing CAS
	// (pending -> done) by owner or helper — between two finalize
	// attempts the record may complete under the caller.
	RGHelpFinalize
	// RGHelpPromote fires between a successful finalize and the slot
	// promotion (reserved -> committed) — a thread frozen here leaves a
	// finalized-but-unconsumable slot that the slot's dequeuer claimant
	// must promote itself.
	RGHelpPromote
	// HTPropagate fires once per tree level while a helptree
	// announcement (or retraction) propagates leaf-to-root
	// (internal/helptree) — a thread frozen here leaves stale
	// aggregates above the refreshed prefix of its path, which helpers
	// must repair rather than trust.
	HTPropagate
	// HTRefresh fires immediately before each aggregate-refresh CAS of
	// the helptree, after the children were read — the window in which
	// a concurrent announce/finalize invalidates the recomputed
	// minimum and the versioned CAS must lose (forcing the
	// double-refresh) instead of installing a stale aggregate.
	HTRefresh
	// HTDescend fires once per level of a helper's root-to-leaf
	// helptree descent toward the oldest announced request — between
	// two levels the chosen subtree's request may complete, so the
	// descent may dead-end at an empty leaf the helper must repair.
	HTDescend
	// RGHelpPinned fires in a ring helper after it announced the
	// ticket's segment and re-validated the segment's life word and the
	// ticket, before its first access to the ticket's slot — a helper
	// frozen here has pinned the segment: the ticket may die meanwhile,
	// but the segment cannot be recycled under it.
	RGHelpPinned
	// RGRetireScan fires after each announcement read of a ring retire
	// scan (caller is the retirer, owner the thread whose announcement
	// was read) — the scan is not a snapshot: announcements it has
	// already passed may move to the retiring segment while it is
	// frozen here.
	RGRetireScan
	numPoints int = iota
)

var pointNames = [numPoints]string{
	"KPBeforeAppend", "KPAfterAppend", "KPAfterStateCASEnq",
	"KPBeforeTailCAS", "KPBeforeEmptyCAS", "KPBeforeDeqTidCAS", "KPAfterDeqTidCAS",
	"KPAfterStateCASDeq", "KPBeforeHeadCAS", "KPHelpScan",
	"KPEnqRetry", "KPDeqRetry",
	"KPFastEnqAttempt", "KPFastDeqAttempt",
	"KPFastBeforeAppend", "KPFastAfterAppend",
	"KPFastBeforeDeqTidCAS", "KPFastAfterDeqTidCAS",
	"KPChainAfterAppend", "KPChainBeforeSwing",
	"MSBeforeAppend", "MSBeforeHeadCAS",
	"SHEnqTicket", "SHDeqTicket",
	"WQPrepare", "WQBeforePark", "WQAfterWake", "WQNotify", "WQCloseBroadcast",
	"RGEnqClaim", "RGDeqClaim", "RGSegAdvance", "RGRetry",
	"RGHelpPublish", "RGHelpClaim", "RGHelpTicket", "RGHelpScan",
	"RGHelpFinalize", "RGHelpPromote",
	"HTPropagate", "HTRefresh", "HTDescend",
	"RGHelpPinned", "RGRetireScan",
}

// String returns the symbolic name of the point.
func (p Point) String() string {
	if int(p) < 0 || int(p) >= numPoints {
		return "Point(?)"
	}
	return pointNames[p]
}

// Hook observes an instrumented point. caller is the queue thread-id of
// the thread executing the code (useful for parking a specific thread to
// simulate preemption); owner is the thread-id of the operation being
// executed or helped at that point (useful for counting per-operation
// steps). Either may be -1 when the algorithm has no such identity (the
// Michael–Scott baseline's points). A hook may block to simulate
// suspension; it must not call back into the queue under test from the
// same goroutine.
type Hook func(p Point, caller, owner int)

// holder wraps the func so it can live in an atomic.Pointer.
type holder struct{ fn Hook }

var active atomic.Pointer[holder]

// Set installs h as the global hook; Set(nil) removes it. It returns the
// previously installed hook (nil if none) so tests can nest and restore.
func Set(h Hook) Hook {
	var prev *holder
	if h == nil {
		prev = active.Swap(nil)
	} else {
		prev = active.Swap(&holder{fn: h})
	}
	if prev == nil {
		return nil
	}
	return prev.fn
}

// At reports point p reached by thread caller while executing owner's
// operation. This is the call the algorithms make; the fast path (no hook)
// is a single atomic load.
func At(p Point, caller, owner int) {
	if h := active.Load(); h != nil {
		h.fn(p, caller, owner)
	}
}

// Enabled reports whether any hook is installed. Algorithms may use it to
// skip preparing arguments for At in hot loops.
func Enabled() bool { return active.Load() != nil }
