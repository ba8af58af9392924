package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wfq"
	"wfq/internal/core"
	"wfq/internal/qsvc"
	"wfq/internal/qsvc/wire"
	"wfq/internal/ring"
)

// The ladder runs the workloads' operations one layer at a time, each
// rung through that layer's public functions only, so that a layer's
// own cost is the difference between adjacent rungs:
//
//	core.New ─▶ wfq facade                             (lib-pairs)
//	ring.New ─▶ wfq WithRing + blocking DequeueCtx     (lib-backlog)
//	qsvc session ─▶ wire codec ─▶ loopback echo ─▶ server+client ─▶ open loop
//	                                                               (serve-*)
//
// Rungs whose difference is a metric run interleaved, in rounds, so that
// a drift of the host's speed moves both sides alike. Every traced run
// runs the whole ladder, whatever its workload, so every traced run
// reports every per-layer metric.
type ladder struct {
	cfg *config
	e   *runEnv
	d   time.Duration // one rung
	m   *meter
	tr  *tracer
	ln  *lane
	out io.Writer
	v   map[string]float64
}

// rung runs one rung and records it as a span of the ladder lane.
func (l *ladder) rung(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.ln.add(l.tr, "ladder."+name, math.MaxUint64-uint64(len(l.ln.spans)), noParent, t0, time.Now())
	if err != nil {
		return fmt.Errorf("ladder rung %s: %w", name, err)
	}
	return nil
}

func (l *ladder) run() error {
	rungs := []struct {
		name string
		f    func() error
	}{
		{"core+wfq", l.pairs},
		{"ring", l.ring},
		{"blocking", l.blocking},
		{"qsvc", l.qsvc},
		{"wire", l.wire},
		{"tcp+client", l.client},
		{"open", l.open},
	}
	for _, r := range rungs {
		if err := l.rung(r.name, r.f); err != nil {
			return err
		}
	}
	l.v["wfq.self_ns"] = l.v["wfq.pair_ns"] - l.v["core.pair_ns"]
	l.v["server.self_us_p50"] = l.v["client.enq_rtt_us_p50"] - l.v["tcp.echo_rtt_us_p50"] - l.v["qsvc.enq_ns"]/1e3
	return nil
}

// spin runs op on maxLoad goroutines for d and returns the mean time
// one goroutine spent per call, in nanoseconds.
func spin(d time.Duration, op func(g int)) float64 {
	var stop atomic.Bool
	var wg sync.WaitGroup
	var calls [maxLoad]counter
	t0 := time.Now()
	for g := 0; g < maxLoad; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var n int64
			for !stop.Load() {
				for i := 0; i < 64; i++ {
					op(g)
				}
				n += 64
			}
			calls[g].n.Store(n)
		}(g)
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	var n int64
	for g := range calls {
		n += calls[g].n.Load()
	}
	return float64(elapsed.Nanoseconds()) * maxLoad / float64(n)
}

// rounds is how many times an interleaved rung alternates its sides.
const rounds = 6

// pairs is lib-pairs' shape on the bare KP engine and on the facade,
// both configured as lib-pairs configures the facade, interleaved; then
// once more on the engine with its event counters, for the ratios.
func (l *ladder) pairs() error {
	opts := []core.Option{core.WithFastPath(0), core.WithClearOnExit()}
	q := core.New[uint64](maxLoad, opts...)
	fq := wfq.New[uint64](maxLoad, wfq.WithFastPath(0), wfq.WithClearOnExit())
	var hs [maxLoad]*wfq.Handle[uint64]
	for g := range hs {
		h, err := fq.Handle()
		if err != nil {
			return err
		}
		defer h.Release()
		hs[g] = h
	}
	var empty atomic.Int64
	var cs, ws []float64
	for r := 0; r < rounds; r++ {
		cs = append(cs, spin(l.d/(2*rounds), func(g int) {
			q.Enqueue(g, uint64(g))
			if _, ok := q.Dequeue(g); !ok {
				empty.Add(1)
			}
		}))
		ws = append(ws, spin(l.d/(2*rounds), func(g int) {
			hs[g].Enqueue(uint64(g))
			if _, ok := hs[g].Dequeue(); !ok {
				empty.Add(1)
			}
		}))
	}
	l.v["core.pair_ns"], l.v["wfq.pair_ns"] = median(cs), median(ws)

	qm := core.New[uint64](maxLoad, append(opts, core.WithMetrics())...)
	spin(l.d/2, func(g int) {
		qm.Enqueue(g, uint64(g))
		if _, ok := qm.Dequeue(g); !ok {
			empty.Add(1)
		}
	})
	if n := empty.Load(); n > 0 {
		return fmt.Errorf("%d dequeues found the queue empty", n)
	}
	t := qm.Metrics().Total()
	ops := float64(t.OpsStarted)
	l.v["core.fast_hit_ratio"] = float64(t.FastHits()) / ops
	l.v["core.helps_per_op"] = float64(t.HelpsGiven) / ops
	l.v["core.append_cas_fail_per_op"] = float64(t.AppendCASFailures) / ops
	return nil
}

// ring is lib-backlog's shape on the bare ring engine: batches of a
// whole cycle, drained by a consumer that spins instead of parking.
func (l *ladder) ring() error {
	q := ring.New[uint64](maxLoad, 0)
	buf := make([]uint64, backlogCycle)
	drained := make(chan struct{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; {
			if _, ok := q.Dequeue(1); !ok {
				if stop.Load() {
					return
				}
				runtime.Gosched()
				continue
			}
			if n++; n%backlogCycle == 0 {
				drained <- struct{}{}
			}
		}
	}()
	t0 := time.Now()
	cycles := 0
	for time.Since(t0) < l.d {
		q.EnqueueBatch(0, buf)
		<-drained
		cycles++
	}
	elapsed := time.Since(t0)
	stop.Store(true)
	wg.Wait()
	ops := float64(2 * cycles * backlogCycle)
	st := q.Stats()
	l.v["ring.op_ns"] = float64(elapsed.Nanoseconds()) / ops
	l.v["ring.seg_alloc_per_mop"] = float64(st.Allocated) / (ops / 1e6)
	l.v["ring.seg_reuse_ratio"] = float64(st.Reused) / float64(st.Allocated+st.Reused)
	l.v["ring.slow_op_ratio"] = float64(st.SlowEnqs+st.SlowDeqs) / ops
	l.v["ring.deq_burns_per_mop"] = float64(st.DeqBurns) / (ops / 1e6)
	return nil
}

// handoff measures, for each of a series of spaced-out requests, the
// time from the producer's call to the parked consumer's return: the
// consumer is given wakeGap to park before each request. stop must make
// consume fail, so that the consumer goroutine ends.
const wakeGap = 500 * time.Microsecond

func handoff(d time.Duration, produce func(v uint64) error, consume func() error, stop func()) (tail, error) {
	rec, err := newRecorder()
	if err != nil {
		return tail{}, err
	}
	defer rec.release()
	got := make(chan time.Time)
	var cerr error
	go func() {
		defer close(got)
		for {
			if cerr = consume(); cerr != nil {
				return
			}
			got <- time.Now()
		}
	}()
	var perr error
	for v, end := uint64(0), time.Now().Add(d); time.Now().Before(end); v++ {
		sleepUntil(time.Now().Add(wakeGap))
		t0 := time.Now()
		if perr = produce(v); perr != nil {
			break
		}
		t1, ok := <-got
		if !ok {
			break
		}
		rec.add(int64(t1.Sub(t0)))
	}
	stop()
	for range got {
	}
	if perr != nil {
		return tail{}, perr
	}
	if cerr != nil && !errors.Is(cerr, wfq.ErrClosed) {
		return tail{}, cerr
	}
	return summarize(rec.samples())
}

// blocking measures the blocking facade on the ring engine: the extra
// cost of a DequeueCtx that finds an element over a plain Dequeue, and
// the wake-up of a parked DequeueCtx.
func (l *ladder) blocking() error {
	q := wfq.New[uint64](maxLoad, wfq.WithRing(0))
	h, err := q.Handle()
	if err != nil {
		return err
	}
	defer h.Release()
	ctx := context.Background()
	buf := make([]uint64, 1<<16)
	var plain, withCtx time.Duration
	n := 0
	for end := time.Now().Add(l.d / 2); time.Now().Before(end); n += len(buf) {
		if err := h.TryEnqueueBatch(buf); err != nil {
			return err
		}
		t0 := time.Now()
		for range buf {
			h.Dequeue()
		}
		plain += time.Since(t0)
		if err := h.TryEnqueueBatch(buf); err != nil {
			return err
		}
		t0 = time.Now()
		for range buf {
			if _, err := h.DequeueCtx(ctx); err != nil {
				return err
			}
		}
		withCtx += time.Since(t0)
	}
	l.v["blocking.dequeuectx_ns"] = float64((withCtx - plain).Nanoseconds()) / float64(n)

	hc, err := q.Handle()
	if err != nil {
		return err
	}
	defer hc.Release()
	t, err := handoff(l.d/2, h.TryEnqueue,
		func() error { _, err := hc.DequeueCtx(ctx); return err },
		func() { q.Close() })
	if err != nil {
		return err
	}
	l.v["blocking.wake_us_p50"] = usec(t.P50)
	l.v["blocking.wake_us_p99"] = usec(t.P99)
	return nil
}

// qsvc measures the queue-service envelope in process, through a
// Session: plain and deadline-armed enqueues with their dequeues, the
// timeout sweep at the open workload's depth, and the hand-off to a
// parked consumer.
func (l *ladder) qsvc() error {
	reg := qsvc.NewRegistry[[]byte]()
	q, err := reg.Create(queueName, qsvc.Config{})
	if err != nil {
		return err
	}
	s, err := q.Session()
	if err != nil {
		return err
	}
	defer s.Release()
	payload := make([]byte, 16)
	const block = 256
	// pairs runs blocks of block enqueues then block dequeues for d and
	// returns ns per enqueue, ns per dequeue and allocations per op.
	pairs := func(d, deadline time.Duration) (enq, deq, allocs float64, err error) {
		var te, td time.Duration
		n := 0
		m0 := l.m.mallocs()
		for end := time.Now().Add(d); time.Now().Before(end); n += block {
			t0 := time.Now()
			for i := 0; i < block; i++ {
				if _, err := s.Enqueue(payload, deadline); err != nil {
					return 0, 0, 0, err
				}
			}
			t1 := time.Now()
			for i := 0; i < block; i++ {
				if _, ok := s.TryDequeue(); !ok {
					return 0, 0, 0, errors.New("dequeue found the queue empty")
				}
			}
			td += time.Since(t1)
			te += t1.Sub(t0)
			if deadline > 0 {
				q.Sweep(time.Now()) // collect the delivered requests' heap entries
			}
		}
		m1 := l.m.mallocs()
		return float64(te.Nanoseconds()) / float64(n), float64(td.Nanoseconds()) / float64(n),
			float64(m1-m0) / float64(2*n), nil
	}
	enq, deq, allocs, err := pairs(l.d/5, 0)
	if err != nil {
		return err
	}
	l.v["qsvc.enq_ns"], l.v["qsvc.deq_ns"], l.v["qsvc.allocs_per_op"] = enq, deq, allocs
	if enq, _, allocs, err = pairs(l.d/5, openDeadline); err != nil {
		return err
	}
	l.v["qsvc.armed_enq_ns"], l.v["qsvc.armed_allocs_per_op"] = enq, allocs

	// The server sweeps every millisecond; at openRate that is this many
	// delivered requests to collect per tick.
	depth := int(math.Ceil(openRate / 1000))
	rec, err := newRecorder()
	if err != nil {
		return err
	}
	defer rec.release()
	for end := time.Now().Add(l.d / 10); time.Now().Before(end); {
		for i := 0; i < depth; i++ {
			if _, err := s.Enqueue(payload, openDeadline); err != nil {
				return err
			}
			s.TryDequeue()
		}
		t0 := time.Now()
		reg.Tick(t0)
		rec.add(int64(time.Since(t0)))
	}
	sw, err := summarize(rec.samples())
	if err != nil {
		return err
	}
	l.v["qsvc.sweep_ns"] = float64(sw.P50)

	sc, err := q.Session()
	if err != nil {
		return err
	}
	defer sc.Release()
	ctx := context.Background()
	t, err := handoff(l.d/2,
		func(uint64) error { _, err := s.Enqueue(payload, 0); return err },
		func() error { _, err := sc.DequeueCtx(ctx); return err },
		func() { q.Close() })
	if err != nil {
		return err
	}
	l.v["qsvc.wait_us_p50"] = usec(t.P50)
	l.v["qsvc.wait_us_p99"] = usec(t.P99)
	return nil
}

// enqRequest is the request serve-wait-open sends, as the codec sees it.
func enqRequest() wire.Request {
	return wire.Request{Verb: wire.VEnq, Name: queueName, Flags: wire.FlagWait,
		DeadlineNs: int64(openDeadline), Payload: make([]byte, 16)}
}

// wire measures the codec (encode and decode of a request and of its
// response) and the framing (WriteFrame then ReadFrame) in memory.
func (l *ladder) wire() error {
	req := enqRequest()
	var enc, out []byte
	n := 0
	t0 := time.Now()
	for end := t0.Add(l.d / 2); time.Now().Before(end); n += 64 {
		for i := 0; i < 64; i++ {
			var err error
			if enc, err = req.EncodeRequest(enc[:0]); err != nil {
				return err
			}
			r, err := wire.DecodeRequest(enc)
			if err != nil {
				return err
			}
			resp := wire.Response{Status: wire.StOK, Payload: r.Payload}
			out = resp.EncodeResponse(out[:0])
			if _, err := wire.DecodeResponse(out); err != nil {
				return err
			}
		}
	}
	l.v["wire.codec_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	var bb bytes.Buffer
	n = 0
	m0 := l.m.mallocs()
	t0 = time.Now()
	for end := t0.Add(l.d / 2); time.Now().Before(end); n += 64 {
		for i := 0; i < 64; i++ {
			if err := wire.WriteFrame(&bb, enc); err != nil {
				return err
			}
			if _, err := wire.ReadFrame(&bb); err != nil {
				return err
			}
		}
	}
	l.v["wire.frame_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	l.v["wire.allocs_per_frame"] = float64(l.m.mallocs()-m0) / float64(n)
	return nil
}

// echo is the floor under every serving latency: the benchmark's own
// server that echoes request-sized frames over loopback TCP, with
// buffered reads and one write per frame on each side, and no queue
// behind it.
type echo struct {
	ln   net.Listener
	c    net.Conn
	br   *bufio.Reader
	done chan error // the server goroutine's exit
}

func startEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echo{ln: ln, done: make(chan error, 1)}
	go e.serve()
	if e.c, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	e.br = bufio.NewReader(e.c)
	return e, nil
}

func (e *echo) serve() {
	c, err := e.ln.Accept()
	if err != nil {
		e.done <- err
		return
	}
	defer c.Close()
	br, bw := bufio.NewReader(c), bufio.NewWriter(c)
	buf := make([]byte, 1<<16)
	for {
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			e.done <- nil // the client hung up
			return
		}
		n := 4 + int(binary.BigEndian.Uint32(buf))
		if n > len(buf) {
			e.done <- fmt.Errorf("echo: frame of %d bytes", n)
			return
		}
		if _, err := io.ReadFull(br, buf[4:n]); err != nil {
			e.done <- err
			return
		}
		if _, err := bw.Write(buf[:n]); err != nil {
			e.done <- err
			return
		}
		if err := bw.Flush(); err != nil {
			e.done <- err
			return
		}
	}
}

// roundTrips echoes frame for d and records each round trip in rec.
func (e *echo) roundTrips(d time.Duration, frame []byte, rec *recorder) error {
	back := make([]byte, len(frame))
	for end := time.Now().Add(d); time.Now().Before(end); {
		t0 := time.Now()
		if _, err := e.c.Write(frame); err != nil {
			return err
		}
		if _, err := io.ReadFull(e.br, back); err != nil {
			return err
		}
		rec.add(int64(time.Since(t0)))
	}
	return nil
}

// close hangs up and returns the server goroutine's error once it ends.
func (e *echo) close() error {
	e.c.Close()
	e.ln.Close()
	return <-e.done
}

// client is serve-pairs with one connection, the per-verb round trips
// through client, wire, server and queue service, interleaved with the
// loopback echo under them.
func (l *ladder) client() error {
	var recs [3]*recorder // echo, enqueue, dequeue
	for i := range recs {
		r, err := newRecorder()
		if err != nil {
			return err
		}
		defer r.release()
		recs[i] = r
	}
	req := enqRequest()
	body, err := req.EncodeRequest(nil)
	if err != nil {
		return err
	}
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	ec, err := startEcho()
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			ec.close() // an earlier error is the one reported
		}
	}()
	svc, err := startService(1)
	if err != nil {
		return err
	}
	defer svc.close()
	c := svc.conns[0]
	payload := make([]byte, 16)
	for r := 0; r < rounds; r++ {
		if err := ec.roundTrips(l.d/(3*rounds), frame, recs[0]); err != nil {
			return err
		}
		for end := time.Now().Add(2 * l.d / (3 * rounds)); time.Now().Before(end); {
			t0 := time.Now()
			if err := c.Enqueue(queueName, payload, 0); err != nil {
				return err
			}
			t1 := time.Now()
			if _, ok, err := c.Dequeue(queueName, 0); err != nil || !ok {
				return fmt.Errorf("dequeue: ok=%v err=%v", ok, err)
			}
			recs[1].add(int64(t1.Sub(t0)))
			recs[2].add(int64(time.Since(t1)))
		}
	}
	closed = true
	if err := ec.close(); err != nil {
		return err
	}
	var ts [3]tail
	for i, r := range recs {
		if ts[i], err = summarize(r.samples()); err != nil {
			return err
		}
	}
	l.v["tcp.echo_rtt_us_p50"] = usec(ts[0].P50)
	l.v["client.enq_rtt_us_p50"], l.v["client.enq_rtt_us_p99"] = usec(ts[1].P50), usec(ts[1].P99)
	l.v["client.deq_rtt_us_p50"], l.v["client.deq_rtt_us_p99"] = usec(ts[2].P50), usec(ts[2].P99)
	return nil
}

// open is serve-wait-open for one rung, untraced.
func (l *ladder) open() error {
	e := &runEnv{cfg: l.cfg, key: l.e.key, rng: rand.New(rand.NewSource(l.cfg.seed + 1))}
	in, err := setupServeWaitOpen(e)
	if err != nil {
		return err
	}
	defer in.close()
	w := in.(*serveWaitOpen)
	c := &control{}
	c.phase.Store(phaseMeasure)
	if err := w.start(c); err != nil {
		return err
	}
	time.Sleep(l.d)
	c.phase.Store(phaseStop)
	o, err := w.finish()
	if err != nil {
		return err
	}
	if o.violations > 0 {
		return fmt.Errorf("%d ledger violations: %v", o.violations, o.notes)
	}
	l.v["client.enqwait_us_p50"] = usec(w.waitTail.P50)
	l.v["client.enqwait_us_p99"] = usec(w.waitTail.P99)
	l.v["load.late_us_p99"] = usec(w.lateTail.P99)
	// These read 0 on every calibration run, so they are printed, not
	// reported.
	fmt.Fprintf(l.out, "# qsvc: %d expired, %d tombstones in the open rung\n", w.qstats.Expired, w.qstats.Tombstones)
	return nil
}

// traced finishes a traced run: it runs the ladder, writes the trace
// file, prints each span name's self time, and puts every ladder metric.
func traced(cfg *config, e *runEnv, st map[string]any, put func(string, float64, string, string), out io.Writer) error {
	l := &ladder{cfg: cfg, e: e, d: cfg.rung, m: newMeter(), tr: e.tr, ln: e.tr.lane("ladder"), out: out, v: map[string]float64{}}
	if err := l.run(); err != nil {
		return err
	}
	_, self := e.tr.resolve()
	for _, s := range e.tr.selfTimes(self) {
		fmt.Fprintf(out, "# span %-36s self p50 %10.3f us  p99 %10.3f us  (n=%d)\n", s.name, usec(s.tail.P50), usec(s.tail.P99), s.tail.N)
	}
	dropped := 0
	for _, ln := range e.tr.lanes {
		dropped += ln.dropped
	}
	if err := e.tr.write(cfg.traceOut, st); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(out, "# trace written to %s (%d spans past the per-lane cap dropped)\n", cfg.traceOut, dropped)
	for _, lm := range layerMetrics {
		if v, ok := l.v[lm.name]; ok {
			put(lm.name, v, lm.unit, "["+lm.layer+"]")
		}
	}
	return nil
}
