// Package chaos is a stall-injection antagonist and wait-freedom
// watchdog for the queue frontends, layered on the internal/yield hook.
//
// The paper's wait-freedom claim (§3.2) is a per-operation step bound:
// every operation completes within a bounded number of its *own* steps,
// no matter what the other threads do — including doing nothing at all,
// forever. Ordinary stress tests never check this; a starving operation
// just makes the test slow. This package checks it directly:
//
//   - The Antagonist plays the adversarial scheduler. Driven by a
//     seeded xrand stream, it picks victim threads and freezes or
//     delays them at chosen classes of instrumented points (mid append
//     CAS, mid chain swing, holding a dispatch ticket, parked in the
//     waiter, ...). Freezing a thread at its worst moment is exactly
//     the suspension the paper's argument must survive.
//
//   - The Watchdog plays the referee. It counts, per thread, the
//     instrumented points the thread passes through during each of its
//     own operations and asserts the count stays under an explicit
//     O(n)-shaped bound (StepBound). It also keeps a per-thread ring of
//     recent points so a violation comes with the trace that produced
//     it, and it checks element conservation and phase-wrap safety at
//     teardown.
//
// The runner wires both into a workload over one of the frontends
// (core GC, core fast-path, hazard-pointer, sharded ticket dispatch,
// blocking/Close drain) and reports worst-case steps and latency
// percentiles per adversary profile. cmd/wfqchaos is the CLI.
//
// Determinism: victim choice and every stall/delay decision are drawn
// from per-thread SplitMix64 streams derived from the run seed, so a
// seed names a reproducible adversary *strategy*. The Go scheduler
// still chooses the physical interleaving — the antagonist makes the
// adversarial schedule reproducible in the decision sense, which is
// what replaying a found violation needs.
package chaos

import (
	"fmt"

	"wfq/internal/yield"
)

// Class groups the instrumented points by the algorithmic window they
// expose, so adversary profiles can say "stall mid-CAS" or "freeze
// ticket holders" without naming thirty points.
type Class int

const (
	// ClassEnqCAS: windows around the enqueue-linearizing append CAS
	// and the descriptor/tail fixes that follow it (paper Lines 74,
	// 93, 94) — a thread frozen here leaves a dangling node or a
	// lagging tail for everyone else to fix.
	ClassEnqCAS Class = iota
	// ClassDeqCAS: windows around the dequeue-linearizing deqTid claim
	// and the descriptor/head fixes (Lines 120, 135, 149, 150) — a
	// thread frozen here leaves a claimed sentinel blocking the head.
	ClassDeqCAS
	// ClassChain: windows inside a batch enqueuer's chain publication
	// and tail swing, and the ring's segment install, swing and retire
	// scan — a thread frozen here leaves a whole chain dangling, or a
	// retired segment neither recycled nor dropped.
	ClassChain
	// ClassTicket: the sharded frontend's fetch-ticket-to-shard-access
	// handoff — a thread frozen here holds a dispatch ticket whose
	// shard operation has not happened yet.
	ClassTicket
	// ClassPark: the blocking frontend's register/recheck/park/wake
	// windows. Points of this class are excluded from step counts (a
	// blocked consumer is waiting, not starving — see ALGORITHM.md,
	// "Blocking and termination").
	ClassPark
	// ClassRetry: loop-top and scan points (help scans, retry loops,
	// bounded fast-path attempts) — delay targets rather than
	// freeze-and-leave-broken targets.
	ClassRetry
	// ClassHelp: the ring backend's wait-free slow path — record
	// publish, ticket publish, helper scan and pin, finalize, promote.
	// A thread frozen here leaves a pending request descriptor (and
	// possibly a reserved slot) that the helping protocol obliges
	// everyone else to finish; the watchdog bound must survive victims
	// parked at every one of these windows.
	ClassHelp
	// ClassTree: the helptree announcement structure's windows —
	// leaf-to-root propagation, aggregate-refresh CAS, root-to-leaf
	// descent (internal/helptree). A thread frozen mid-propagation
	// leaves stale aggregates that helpers must repair rather than
	// trust; the polylog step bound must survive victims parked at
	// every tree level.
	ClassTree
	numClasses
)

var classNames = [numClasses]string{
	"enq-cas", "deq-cas", "chain", "ticket", "park", "retry", "help", "tree",
}

// String returns the class's symbolic name.
func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// Classify maps an instrumented point to its class.
func Classify(p yield.Point) Class {
	switch p {
	case yield.KPBeforeAppend, yield.KPAfterAppend, yield.KPAfterStateCASEnq,
		yield.KPBeforeTailCAS, yield.KPFastBeforeAppend, yield.KPFastAfterAppend,
		yield.MSBeforeAppend, yield.RGEnqClaim:
		return ClassEnqCAS
	case yield.KPBeforeEmptyCAS, yield.KPBeforeDeqTidCAS, yield.KPAfterDeqTidCAS,
		yield.KPAfterStateCASDeq, yield.KPBeforeHeadCAS,
		yield.KPFastBeforeDeqTidCAS, yield.KPFastAfterDeqTidCAS,
		yield.MSBeforeHeadCAS, yield.RGDeqClaim:
		return ClassDeqCAS
	case yield.KPChainAfterAppend, yield.KPChainBeforeSwing, yield.RGSegAdvance,
		yield.RGRetireScan:
		return ClassChain
	case yield.SHEnqTicket, yield.SHDeqTicket:
		return ClassTicket
	case yield.WQPrepare, yield.WQBeforePark, yield.WQAfterWake,
		yield.WQNotify, yield.WQCloseBroadcast:
		return ClassPark
	case yield.RGHelpPublish, yield.RGHelpClaim, yield.RGHelpTicket,
		yield.RGHelpScan, yield.RGHelpFinalize, yield.RGHelpPromote,
		yield.RGHelpPinned:
		return ClassHelp
	case yield.HTPropagate, yield.HTRefresh, yield.HTDescend:
		return ClassTree
	default:
		// KPHelpScan, KPEnqRetry, KPDeqRetry, KPFastEnqAttempt,
		// KPFastDeqAttempt, RGRetry.
		return ClassRetry
	}
}

// ClassSet is a bitmask of point classes an adversary targets.
type ClassSet uint32

// Classes builds a ClassSet from its members.
func Classes(cs ...Class) ClassSet {
	var s ClassSet
	for _, c := range cs {
		s |= 1 << uint(c)
	}
	return s
}

// Has reports whether c is in the set.
func (s ClassSet) Has(c Class) bool { return s&(1<<uint(c)) != 0 }

// String lists the member classes.
func (s ClassSet) String() string {
	out := ""
	for c := Class(0); c < numClasses; c++ {
		if s.Has(c) {
			if out != "" {
				out += "+"
			}
			out += c.String()
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// AllClasses targets every point class except parking (parking is
// excluded by default because freezing a thread that is already parked
// proves nothing — it is indistinguishable from a slow wake) and the
// ring's ClassHelp (which only fires in ring scenarios, whose class
// sets add it explicitly).
var AllClasses = Classes(ClassEnqCAS, ClassDeqCAS, ClassChain, ClassTicket, ClassRetry, ClassTree)

// Profile names an adversary strategy.
type Profile int

const (
	// SingleStall freezes one seeded victim thread at its first
	// targeted point and holds it frozen until every live thread has
	// finished its quota — the paper's "a thread is preempted and
	// never scheduled again until the end" adversary, the minimal
	// schedule that already kills every lock-based and many lock-free
	// designs.
	SingleStall Profile = iota
	// RollingStall freezes no one permanently; instead every thread
	// suffers seeded probabilistic delays at targeted points, each
	// delay lasting until the rest of the system has made a fixed
	// amount of progress (measured in hook events). This is the
	// "hostile but fair" scheduler that maximizes window overlap — the
	// profile that finds races rather than starvation.
	RollingStall
	// PermanentKill freezes a seeded subset of threads (about a
	// quarter) at targeted points and never releases them until
	// teardown — the crash-failure adversary. Wait-freedom demands the
	// survivors' step bounds hold with the victims' operations
	// permanently half-finished in the middle of the data structure.
	PermanentKill
	numProfiles
)

var profileNames = [numProfiles]string{
	"single-stall", "rolling-stall", "permanent-kill",
}

// String returns the profile's name as used in CLI flags and reports.
func (p Profile) String() string {
	if p < 0 || p >= numProfiles {
		return fmt.Sprintf("Profile(%d)", int(p))
	}
	return profileNames[p]
}

// ProfileByName resolves a CLI name to a Profile.
func ProfileByName(s string) (Profile, error) {
	for i, n := range profileNames {
		if n == s {
			return Profile(i), nil
		}
	}
	return 0, fmt.Errorf("unknown profile %q (want one of %v)", s, profileNames)
}

// AllProfiles lists every profile, in escalation order.
var AllProfiles = []Profile{SingleStall, RollingStall, PermanentKill}
