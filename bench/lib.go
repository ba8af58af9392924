package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wfq"
)

// lib-pairs: two goroutines, each with a leased Handle, loop
// Enqueue+Dequeue on the fast-path KP engine (the queue service's
// default backend). The queue stays near empty, so this is engine,
// helping and facade cost under contention, with no wire at all.
type libPairs struct {
	e  *runEnv
	q  *wfq.Queue[uint64]
	hs [maxLoad]*wfq.Handle[uint64]

	wg      sync.WaitGroup
	streams [maxLoad]*stream
	sinks   [maxLoad]*sink
	recs    [maxLoad]*recorder
	lanes   [maxLoad]*lane
	timed   [maxLoad]int64 // measured (sampled) pairs
	empty   [maxLoad]int64 // dequeues that found the queue empty
	pairs   [maxLoad]int64
}

func setupLibPairs(e *runEnv) (instance, error) {
	w := &libPairs{e: e, q: wfq.New[uint64](maxLoad, wfq.WithFastPath(0), wfq.WithClearOnExit())}
	for g := range w.hs {
		h, err := w.q.Handle()
		if err != nil {
			w.close()
			return nil, fmt.Errorf("lease handle: %w", err)
		}
		w.hs[g] = h
	}
	return w, nil
}

func (w *libPairs) start(c *control) error {
	for g := range w.hs {
		rec, err := newRecorder()
		if err != nil {
			return err
		}
		w.recs[g] = rec
		w.streams[g] = newStream(g, w.e.key)
		w.sinks[g] = newSink(w.e.key)
		w.lanes[g] = w.e.tr.lane(fmt.Sprintf("pairs-%d", g))
	}
	for g := range w.hs {
		w.wg.Add(1)
		go w.loop(c, g)
	}
	return nil
}

// loop times one pair in every traceEvery — a clock read costs about as
// much as a queue operation on the calibration host, so timing every
// pair would measure the clock.
func (w *libPairs) loop(c *control, g int) {
	defer w.wg.Done()
	h, st, sk, rec, ln := w.hs[g], w.streams[g], w.sinks[g], w.recs[g], w.lanes[g]
	var i int64
	for ; ; i++ {
		timed := false
		if i%traceEvery == 0 {
			c.ops[g].n.Store(2 * i)
			ph := c.phase.Load()
			if ph == phaseStop {
				break
			}
			timed = ph == phaseMeasure
		}
		v := st.next()
		var t0, t1 time.Time
		if timed {
			t0 = time.Now()
		}
		h.Enqueue(v)
		if timed && ln != nil {
			t1 = time.Now()
		}
		got, ok := h.Dequeue()
		if timed {
			t2 := time.Now()
			rec.add(int64(t2.Sub(t0)))
			w.timed[g]++
			if ln != nil {
				id := v ^ st.key
				root := ln.add(w.e.tr, "pair", id, noParent, t0, t2)
				ln.add(w.e.tr, "wfq.Handle.Enqueue", id, root, t0, t1)
				ln.add(w.e.tr, "wfq.Handle.Dequeue", id, root, t1, t2)
			}
		}
		st.admitted(v)
		if ok {
			sk.take(got)
		} else {
			w.empty[g]++
		}
	}
	c.ops[g].n.Store(2 * i)
	w.pairs[g] = i
}

func (w *libPairs) finish() (outcome, error) {
	w.wg.Wait()
	// Two goroutines that each enqueue before they dequeue can never
	// find a linearizable FIFO empty; whatever is left is drained into
	// the ledger so that a lost element shows as lost, not as left over.
	for {
		v, ok := w.hs[0].Dequeue()
		if !ok {
			break
		}
		w.sinks[0].take(v)
	}
	var o outcome
	var samples [][]int64
	for g := range w.hs {
		o.attempted += 2 * w.pairs[g]
		o.violations += w.empty[g]
		if w.empty[g] > 0 {
			o.notes = append(o.notes, fmt.Sprintf("goroutine %d: %d dequeues found the queue empty", g, w.empty[g]))
		}
		o.latDone += w.timed[g]
		samples = append(samples, w.recs[g].samples())
	}
	bad, notes := verdict(w.streams[:], w.sinks[:])
	o.violations += bad
	o.notes = append(o.notes, notes...)
	var err error
	o.lat, err = summarize(samples...)
	o.latWhat = fmt.Sprintf("one Enqueue+Dequeue pair, 1 pair in %d timed", traceEvery)
	return o, err
}

func (w *libPairs) close() {
	for g, h := range w.hs {
		if h != nil {
			h.Release()
		}
		w.recs[g].release()
	}
}

// lib-backlog: one producer enqueues cycles of backlogCycle elements on
// the ring engine, each cycle as one TryEnqueueBatch, and waits for the
// cycle to drain; one consumer loops Handle.DequeueCtx and parks at
// every cycle's end. The queue holds a whole cycle — about 4 MiB of
// segments, more than L2 — so segments are installed, retired, recycled
// and dropped every cycle, and the consumer parks and wakes once per
// cycle.
const backlogCycle = 1 << 18

type libBacklog struct {
	e      *runEnv
	q      *wfq.Queue[uint64]
	hp, hc *wfq.Handle[uint64]

	wg      sync.WaitGroup
	buf     *mapped[uint64] // the next cycle's values
	drained chan time.Time  // consumer → producer: the cycle's last dequeue
	gone    chan struct{}   // closed when the consumer exits
	st      *stream
	sk      *sink
	rec     *recorder
	lp, lc  *lane
	cycles  int64 // measured cycles
	enqErr  error
	deqErr  error
	dequeue int64
}

func setupLibBacklog(e *runEnv) (instance, error) {
	w := &libBacklog{e: e, q: wfq.New[uint64](maxLoad, wfq.WithRing(0))}
	var err error
	if w.hp, err = w.q.Handle(); err == nil {
		w.hc, err = w.q.Handle()
	}
	if err != nil {
		w.close()
		return nil, fmt.Errorf("lease handle: %w", err)
	}
	return w, nil
}

func (w *libBacklog) start(c *control) error {
	var err error
	if w.buf, err = mapSlice[uint64](backlogCycle); err != nil {
		return err
	}
	if w.rec, err = newRecorder(); err != nil {
		return err
	}
	w.drained = make(chan time.Time)
	w.gone = make(chan struct{})
	w.st = newStream(0, w.e.key)
	w.sk = newSink(w.e.key)
	w.lp = w.e.tr.lane("producer")
	w.lc = w.e.tr.lane("consumer")
	w.wg.Add(2)
	go w.produce(c)
	go w.consume(c)
	return nil
}

// fill writes the next cycle's values and returns their tally, which
// counts as admitted once the batch is in.
func (w *libBacklog) fill() tally {
	var t tally
	for i := range w.buf.s {
		v := w.st.next()
		w.buf.s[i] = v
		t.add(v ^ w.st.key)
	}
	return t
}

func (w *libBacklog) produce(c *control) {
	defer w.wg.Done()
	defer w.q.Close() // the consumer drains what is left, then sees ErrClosed
	next := w.fill()
	var enqueued int64
	for cycle := uint64(0); ; cycle++ {
		ph := c.phase.Load()
		if ph == phaseStop {
			return
		}
		t0 := time.Now()
		if err := w.hp.TryEnqueueBatch(w.buf.s); err != nil {
			w.enqErr = err
			return
		}
		t1 := time.Now()
		enqueued += backlogCycle
		c.ops[0].n.Store(enqueued)
		w.st.sent.n += next.n
		w.st.sent.sum += next.sum
		w.st.sent.fp += next.fp
		// The next cycle's values are generated while this one drains.
		next = w.fill()
		var t2 time.Time
		select {
		case t2 = <-w.drained:
		case <-w.gone:
			return
		}
		if ph == phaseMeasure {
			w.rec.add(int64(t2.Sub(t0)))
			w.cycles++
			if w.lp != nil {
				root := w.lp.add(w.e.tr, "cycle", cycle, noParent, t0, t2)
				w.lp.add(w.e.tr, "wfq.Handle.TryEnqueueBatch", cycle, root, t0, t1)
			}
		}
	}
}

func (w *libBacklog) consume(c *control) {
	defer w.wg.Done()
	defer close(w.gone)
	ctx := context.Background()
	var n int64
	for {
		first := n%backlogCycle == 0
		var t0 time.Time
		if first && w.lc != nil {
			t0 = time.Now()
		}
		v, err := w.hc.DequeueCtx(ctx)
		if err != nil {
			if !errors.Is(err, wfq.ErrClosed) {
				w.deqErr = err
			}
			break
		}
		if first && w.lc != nil && c.measuring() {
			w.lc.add(w.e.tr, "wfq.Handle.DequeueCtx (cycle start)", uint64(n/backlogCycle), seqParent, t0, time.Now())
		}
		w.sk.take(v)
		n++
		if n%64 == 0 {
			c.ops[1].n.Store(n)
		}
		if n%backlogCycle == 0 {
			w.drained <- time.Now()
		}
	}
	c.ops[1].n.Store(n)
	w.dequeue = n
}

func (w *libBacklog) finish() (outcome, error) {
	w.wg.Wait()
	o := outcome{attempted: int64(w.st.sent.n) + w.dequeue, latDone: w.cycles}
	for _, err := range []error{w.enqErr, w.deqErr} {
		if err != nil {
			o.failed++
			o.notes = append(o.notes, err.Error())
		}
	}
	bad, notes := verdict([]*stream{w.st}, []*sink{w.sk})
	o.violations += bad
	o.notes = append(o.notes, notes...)
	var err error
	o.lat, err = summarize(w.rec.samples())
	o.latWhat = "one cycle, batch enqueue to its last dequeue"
	return o, err
}

func (w *libBacklog) close() {
	for _, h := range []*wfq.Handle[uint64]{w.hp, w.hc} {
		if h != nil {
			h.Release()
		}
	}
	w.buf.release()
	w.rec.release()
}
