package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"time"

	"wfq"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/client"
	"wfq/internal/qsvc/server"
)

const queueName = "bench"

// service is an in-process queue server bound to loopback, one queue
// with the service's default configuration, and the client
// connections. Every byte between client and server crosses the
// kernel's loopback TCP path.
type service struct {
	srv   *server.Server
	addr  string
	conns []*client.Conn
}

func startService(nconns int) (*service, error) {
	s := &service{srv: server.New(server.Options{})}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = addr.String()
	if _, err := s.srv.Registry().Create(queueName, qsvc.Config{}); err != nil {
		s.close()
		return nil, fmt.Errorf("create queue: %w", err)
	}
	for i := 0; i < nconns; i++ {
		c, err := client.Dial(s.addr)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.conns = append(s.conns, c)
	}
	return s, nil
}

func (s *service) close() {
	for _, c := range s.conns {
		c.Close()
	}
	s.srv.Shutdown()
}

// stats is the server-side view of the queue.
func (s *service) stats() qsvc.Stats {
	q, ok := s.srv.Registry().Get(queueName)
	if !ok {
		return qsvc.Stats{}
	}
	return q.Stats()
}

// serve-pairs: two goroutines, each on its own connection, loop
// client.Enqueue (16 bytes, no deadline) then client.Dequeue (no wait).
// No backlog, no parking, no deadlines: the per-message cost of the
// wire, the server and the queue service dominates.
type servePairs struct {
	e   *runEnv
	svc *service

	wg      sync.WaitGroup
	streams [maxLoad]*stream
	sinks   [maxLoad]*sink
	recs    [maxLoad]*recorder
	lanes   [maxLoad]*lane
	reqs    [maxLoad]int64 // requests sent
	done    [maxLoad]int64 // measured requests completed
	empty   [maxLoad]int64
	errs    [maxLoad]error
}

func setupServePairs(e *runEnv) (instance, error) {
	svc, err := startService(maxLoad)
	if err != nil {
		return nil, err
	}
	return &servePairs{e: e, svc: svc}, nil
}

func (w *servePairs) start(c *control) error {
	for g := range w.recs {
		rec, err := newRecorder()
		if err != nil {
			return err
		}
		w.recs[g] = rec
		w.streams[g] = newStream(g, w.e.key)
		w.sinks[g] = newSink(w.e.key)
		w.lanes[g] = w.e.tr.lane(fmt.Sprintf("conn-%d", g))
	}
	for g := range w.recs {
		w.wg.Add(1)
		go w.loop(c, g)
	}
	return nil
}

func (w *servePairs) loop(c *control, g int) {
	defer w.wg.Done()
	conn, st, sk, rec, ln := w.svc.conns[g], w.streams[g], w.sinks[g], w.recs[g], w.lanes[g]
	buf := make([]byte, 0, 16)
	for {
		ph := c.phase.Load()
		if ph == phaseStop {
			return
		}
		v := st.next()
		buf = st.payload(buf, v)
		t0 := time.Now()
		err := conn.Enqueue(queueName, buf, 0)
		t1 := time.Now()
		w.reqs[g]++
		if err != nil {
			w.errs[g] = fmt.Errorf("enqueue: %w", err)
			return
		}
		st.admitted(v)
		got, ok, err := conn.Dequeue(queueName, 0)
		t2 := time.Now()
		w.reqs[g]++
		c.ops[g].n.Store(w.reqs[g])
		if err != nil {
			w.errs[g] = fmt.Errorf("dequeue: %w", err)
			return
		}
		if !ok {
			w.empty[g]++
			continue
		}
		sk.takePayload(got)
		if ph == phaseMeasure {
			rec.add(int64(t1.Sub(t0)))
			rec.add(int64(t2.Sub(t1)))
			w.done[g] += 2
			if id := v ^ st.key; ln.traced(id) {
				root := ln.add(w.e.tr, "pair", id, noParent, t0, t2)
				ln.add(w.e.tr, "client.Enqueue", id, root, t0, t1)
				ln.add(w.e.tr, "client.Dequeue", id, root, t1, t2)
			}
		}
	}
}

func (w *servePairs) finish() (outcome, error) {
	w.wg.Wait()
	var o outcome
	// Drain what is left (nothing, unless an element went missing and
	// reappeared) so the ledger sees every delivery.
	for {
		b, ok, err := w.svc.conns[0].Dequeue(queueName, 0)
		if err != nil || !ok {
			break
		}
		w.sinks[0].takePayload(b)
	}
	var samples [][]int64
	for g := range w.recs {
		o.attempted += w.reqs[g]
		if w.errs[g] != nil {
			o.failed++
			o.notes = append(o.notes, fmt.Sprintf("connection %d: %v", g, w.errs[g]))
		}
		if w.empty[g] > 0 {
			o.violations += w.empty[g]
			o.notes = append(o.notes, fmt.Sprintf("connection %d: %d dequeues found the queue empty", g, w.empty[g]))
		}
		o.latDone += w.done[g]
		samples = append(samples, w.recs[g].samples())
	}
	bad, notes := verdict(w.streams[:], w.sinks[:])
	o.violations += bad
	o.notes = append(o.notes, notes...)
	st := w.svc.stats()
	o.info = append(o.info, fmt.Sprintf("server: admitted %d, delivered %d, depth %d", st.Admitted, st.Delivered, st.Depth))
	var err error
	o.lat, err = summarize(samples...)
	o.latWhat = "one request's round trip"
	return o, err
}

func (w *servePairs) close() {
	w.svc.close()
	for _, r := range w.recs {
		r.release()
	}
}

// serve-wait-open: an open loop. One goroutine draws Poisson arrival
// times at openRate and sends each arrival as client.EnqueueWait with
// an openDeadline deadline on the producer connection; a second loops a
// blocking client.Dequeue on the consumer connection. Every request
// takes the armed path: a completion record, the deadline heap, the
// sweep ticker, FlagWait deferral, a parked consumer. The rate fixes
// the throughput, so a gain shows as latency and CPU per request.
const (
	// openRate is about 40% of one connection's EnqueueWait capacity on
	// the calibration host: 1 / the round trip traced runs report as
	// client.enqwait_us_p50 (calibration/README.md).
	openRate     = 7500.0
	openDeadline = 50 * time.Millisecond
	// openLimitP99 is the latency limit at openRate: the p99 of due →
	// confirmed.
	openLimitP99 = 2 * time.Millisecond
)

type serveWaitOpen struct {
	e   *runEnv
	svc *service // conns[0] produces, conns[1] consumes

	prod, cons sync.WaitGroup
	st         *stream
	sk         *sink
	deliver    *recorder // due → confirmed
	late       *recorder // due → sent
	wait       *recorder // sent → confirmed
	lp, lc     *lane

	sent, confirmed, expired int64
	measured                 int64 // measured requests confirmed
	lastLate                 time.Duration
	perr, cerr               error

	// Filled by finish.
	lateTail, waitTail tail
	qstats             qsvc.Stats
}

func setupServeWaitOpen(e *runEnv) (instance, error) {
	svc, err := startService(2)
	if err != nil {
		return nil, err
	}
	return &serveWaitOpen{e: e, svc: svc}, nil
}

func (w *serveWaitOpen) start(c *control) error {
	var err error
	if w.deliver, err = newRecorder(); err != nil {
		return err
	}
	if w.late, err = newRecorder(); err != nil {
		return err
	}
	if w.wait, err = newRecorder(); err != nil {
		return err
	}
	w.st = newStream(0, w.e.key)
	w.sk = newSink(w.e.key)
	w.lp = w.e.tr.lane("producer")
	w.lc = w.e.tr.lane("consumer")
	w.prod.Add(1)
	w.cons.Add(1)
	go w.generate(c)
	go w.consume(c)
	return nil
}

// sleepUntil sleeps on the calling OS thread with nanosleep, which with
// a 1 ns timer slack wakes within a few microseconds of t; the Go
// timer wakes up to a millisecond late on the calibration host, which
// is longer than the mean gap between arrivals.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// openLoop is the open-loop generator: it draws Poisson due times at
// rate from rng, sleeps until each, and calls send with it — at once
// when it is behind. It returns when send returns false. The caller
// times each request from its due time, not from when it was sent, so
// a stall of the system shows in the latency of every request that fell
// due during it.
func openLoop(rng *rand.Rand, rate float64, send func(due time.Time) bool) {
	gap := func() time.Duration { return time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) }
	for due := time.Now().Add(gap()); ; due = due.Add(gap()) {
		sleepUntil(due)
		if !send(due) {
			return
		}
	}
}

func (w *serveWaitOpen) generate(c *control) {
	defer w.prod.Done()
	// The thread is locked and never unlocked, so the runtime discards
	// it, with its timer slack, when this goroutine ends.
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: only precision depends on it

	conn := w.svc.conns[0]
	buf := make([]byte, 0, 16)
	openLoop(w.e.rng, openRate, func(due time.Time) bool {
		ph := c.phase.Load()
		if ph == phaseStop {
			return false
		}
		v := w.st.next()
		buf = w.st.payload(buf, v)
		send := time.Now()
		err := conn.EnqueueWait(queueName, buf, openDeadline)
		done := time.Now()
		w.sent++
		w.lastLate = send.Sub(due)
		switch {
		case err == nil:
			w.st.admitted(v)
			w.confirmed++
			c.ops[0].n.Store(w.confirmed)
		case errors.Is(err, wfq.ErrDeadlineExceeded):
			// Admitted, then expired: it must never be delivered.
			w.expired++
			return true
		default:
			w.perr = fmt.Errorf("enqueue-wait: %w", err)
			return false
		}
		if ph == phaseMeasure {
			w.deliver.add(int64(done.Sub(due)))
			w.late.add(int64(send.Sub(due)))
			w.wait.add(int64(done.Sub(send)))
			w.measured++
			if id := v ^ w.st.key; w.lp.traced(id) {
				root := w.lp.add(w.e.tr, "request", id, noParent, due, done)
				w.lp.add(w.e.tr, "load.late", id, root, due, send)
				w.lp.add(w.e.tr, "client.EnqueueWait", id, root, send, done)
			}
		}
		return true
	})
}

func (w *serveWaitOpen) consume(c *control) {
	defer w.cons.Done()
	conn := w.svc.conns[1]
	for {
		t0 := time.Now()
		b, ok, err := conn.Dequeue(queueName, -1)
		if err != nil {
			if !errors.Is(err, wfq.ErrClosed) {
				w.cerr = fmt.Errorf("dequeue: %w", err)
			}
			return
		}
		if !ok {
			continue
		}
		w.sk.takePayload(b)
		if len(b) == 16 && c.measuring() {
			if id := binary.BigEndian.Uint64(b) ^ w.sk.key; w.lc.traced(id) {
				w.lc.add(w.e.tr, "client.Dequeue (blocking)", id, seqParent, t0, time.Now())
			}
		}
	}
}

func (w *serveWaitOpen) finish() (outcome, error) {
	w.prod.Wait()
	// Closing the queue ends the consumer's blocking dequeue once the
	// queue is drained.
	if err := w.svc.srv.Registry().Close(queueName); err != nil {
		return outcome{}, fmt.Errorf("close queue: %w", err)
	}
	w.cons.Wait()
	o := outcome{attempted: w.sent, failed: w.expired, latDone: w.measured}
	for _, err := range []error{w.perr, w.cerr} {
		if err != nil {
			o.failed++
			o.notes = append(o.notes, err.Error())
		}
	}
	if w.expired > 0 {
		o.notes = append(o.notes, fmt.Sprintf("%d requests expired after %v", w.expired, openDeadline))
	}
	bad, notes := verdict([]*stream{w.st}, []*sink{w.sk})
	o.violations = bad
	o.notes = append(o.notes, notes...)
	var err error
	o.latWhat = "one request, due time to confirmation"
	if o.lat, err = summarize(w.deliver.samples()); err != nil {
		return o, err
	}
	if w.lateTail, err = summarize(w.late.samples()); err != nil {
		return o, err
	}
	if w.waitTail, err = summarize(w.wait.samples()); err != nil {
		return o, err
	}
	late := w.lateTail
	w.qstats = w.svc.stats()
	st := w.qstats
	met := "met"
	if time.Duration(o.lat.P99) > openLimitP99 {
		met = "NOT met"
	}
	o.info = append(o.info,
		fmt.Sprintf("open loop: Poisson %.0f req/s, deadline %v; limit p99(due→confirmed) ≤ %v: %s (p99 %.1f us)",
			openRate, openDeadline, openLimitP99, met, usec(o.lat.P99)),
		fmt.Sprintf("generator lateness (due→sent): p50 %.1f us, p99 %.1f us, last request %.1f us (n=%d)",
			usec(late.P50), usec(late.P99), usec(int64(w.lastLate)), late.N),
		fmt.Sprintf("server: admitted %d, delivered %d, expired %d, tombstones %d", st.Admitted, st.Delivered, st.Expired, st.Tombstones))
	return o, nil
}

func (w *serveWaitOpen) close() {
	w.svc.close()
	w.deliver.release()
	w.late.release()
	w.wait.release()
}
