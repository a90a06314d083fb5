package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"lbrm/internal/core"
	"lbrm/internal/logger"
	"lbrm/internal/wire"
)

const (
	warmupWindow   = 64 // PDUs in flight while warming up
	warmupDeadline = 10 * time.Second
	drainCap       = 3 * time.Second
)

// sendOne sends stream t's next PDU. It runs inside the sender node's
// critical section (Node.Do), as any application send must.
func (s *stack) sendOne(t *txStream, origin int64) {
	seq := t.sent.Load() + 1
	if seq > t.maxSeq {
		return
	}
	t.fill(seq)
	t.origin[seq%originRing].Store(origin)
	tr := t.tap.tr
	sp := tr.begin(spanSendCall)
	tr.tagSeq(sp, t.group, seq, wire.TypeData)
	got, err := t.sender.Send(t.buf)
	tr.end(sp)
	if err != nil {
		t.sendErrs++
		return
	}
	if got != seq {
		t.seqSkew++
	}
	t.sent.Store(got)
	s.sentTotal.Add(1)
	if r := t.sender.Retained(); r > t.retainedMax {
		t.retainedMax = r
	}
}

// warmUp delivers the warm-up PDUs everywhere (closed loop, striped over
// the streams), then clears the samples they left. It waits on delivery
// and acknowledgement, never on a clock.
func (s *stack) warmUp() error {
	deadline := s.clock.now() + int64(warmupDeadline)
	for i := 0; i < s.o.warmup; i++ {
		if s.outstanding() >= warmupWindow && !s.waitOutstanding(warmupWindow/2, deadline) {
			break
		}
		t := s.tx[i%len(s.tx)]
		t.node.Do(func() { s.sendOne(t, s.clock.now()) })
	}
	if !s.waitOutstanding(0, deadline) {
		return fmt.Errorf("warm-up: %d of %d PDUs still outstanding after %v", s.outstanding(), s.o.warmup, warmupDeadline)
	}
	for _, t := range s.tx {
		if t.sendErrs > 0 {
			return fmt.Errorf("warm-up: %d Send errors on stream %d", t.sendErrs, t.group)
		}
		t.node.Do(func() { t.ackLat, t.retainedMax = histogram{}, 0 })
	}
	for r, streams := range s.rx {
		for _, rs := range streams {
			s.receivers[r].fleet.Do(rs.tx.group, func() { rs.lat = histogram{} })
		}
	}
	return nil
}

// openLoop sends perFrame PDUs per frame on an absolute schedule
// (due_k = t0 + k·frame): a stall does not thin the load, it queues it, and
// every PDU's latency is timed from when it was due. Overdue frames go out
// no closer together than a quarter frame: the whole VM freezes for up to
// 400 ms now and then, and a generator that then fires 80 frames back to
// back overflows every socket buffer in one blow, which measures the
// hypervisor, not the stack. It returns the run-clock time the window
// closed.
func (s *stack) openLoop(window time.Duration) (end int64) {
	t := s.tx[0]
	tr := t.tap.tr
	var due int64
	frame := func() {
		sp := tr.begin(spanGen)
		for i := 0; i < s.w.perFrame; i++ {
			s.sendOne(t, due)
		}
		tr.end(sp)
	}
	frames := int64(window / s.w.frame)
	minGap := int64(s.w.frame / 4)
	t0 := s.clock.now()
	s.mark(t0, t0)
	k, lastSend := int64(0), t0-minGap
	for ; k < frames && !s.traceFull.Load(); k++ {
		due = t0 + k*int64(s.w.frame)
		if earliest := lastSend + minGap; earliest > due {
			time.Sleep(time.Duration(earliest - s.clock.now()))
		} else if d := due - s.clock.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		now := s.clock.now()
		s.late.add(now - due)
		if k > 0 && k%int64(sliceLength/s.w.frame) == 0 {
			s.mark(t0, now)
		}
		t.node.Do(frame)
		lastSend = now
	}
	if d := t0 + k*int64(s.w.frame) - s.clock.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	end = s.clock.now()
	s.mark(t0, end)
	return end
}

// mark records the window's progress at run-clock time now.
func (s *stack) mark(t0, now int64) {
	s.points = append(s.points, progress{at: time.Duration(now - t0), cpu: cpuTime(), mallocs: mallocs(), deliveries: s.deliveredTotal()})
}

// closedLoop keeps at most W PDUs outstanding, striping sends round-robin
// over the streams, one Send per critical section as lbrm-send does. A
// full window blocks the generator until a quarter of it has drained, so
// it refills in bursts instead of waking once per delivery. It returns the
// run-clock time the window closed.
func (s *stack) closedLoop(window time.Duration) (end int64) {
	w := int64(s.w.window)
	sends := make([]func(), len(s.tx))
	for i, t := range s.tx {
		tr := t.tap.tr
		sends[i] = func() {
			sp := tr.begin(spanGen)
			s.sendOne(t, s.clock.now())
			tr.end(sp)
		}
	}
	t0 := s.clock.now()
	deadline := t0 + int64(window)
	s.mark(t0, t0)
	nextMark := t0 + int64(sliceLength)
	for g := 0; !s.traceFull.Load(); g = (g + 1) % len(s.tx) {
		now := s.clock.now()
		if now >= deadline {
			break
		}
		if now >= nextMark {
			s.mark(t0, now)
			nextMark += int64(sliceLength)
		}
		if s.outstanding() >= w && !s.waitOutstanding(w*3/4, deadline) {
			break
		}
		t := s.tx[g]
		if t.sent.Load() >= t.maxSeq {
			s.capped = true // bitmap capacity: the box outran closedLoopMaxRate
			break
		}
		t.node.Do(sends[g])
	}
	end = s.clock.now()
	s.mark(t0, end)
	return end
}

// protoStats is the protocol objects' own counters at one instant.
type protoStats struct {
	sender    []core.SenderStats
	primary   []logger.PrimaryStats
	secondary []logger.SecondaryStats
	receiver  [][]core.ReceiverStats
}

// snapshotStats reads every protocol object's Stats inside its node's
// critical section.
func (s *stack) snapshotStats() protoStats {
	ps := protoStats{
		sender:    make([]core.SenderStats, len(s.tx)),
		primary:   make([]logger.PrimaryStats, len(s.tx)),
		secondary: make([]logger.SecondaryStats, len(s.tx)),
		receiver:  make([][]core.ReceiverStats, len(s.rcvs)),
	}
	for i, t := range s.tx {
		g := t.group
		s.sender.fleet.Do(g, func() { ps.sender[i] = s.tx[i].sender.Stats() })
		s.primary.fleet.Do(g, func() { ps.primary[i] = s.primaries[i].Stats() })
		s.secondary.fleet.Do(g, func() { ps.secondary[i] = s.secondaries[i].Stats() })
	}
	for r, rcvs := range s.rcvs {
		ps.receiver[r] = make([]core.ReceiverStats, len(rcvs))
		for i, rcv := range rcvs {
			s.receivers[r].fleet.Do(s.tx[i].group, func() { ps.receiver[r][i] = rcv.Stats() })
		}
	}
	return ps
}

// deliveredTotal is the application deliveries made so far, over all
// receivers.
func (s *stack) deliveredTotal() uint64 {
	var n uint64
	for _, r := range s.rxEndpoints {
		n += uint64(r.delivered.Load())
	}
	return n
}

// windowResult is everything one measured window produced.
type windowResult struct {
	s          *stack
	end        int64 // run-clock time the window closed
	proc       procDelta
	deliveries uint64 // made inside the window
	before     protoStats
	after      protoStats
	nodesAt    [2]nodeCounters // node obs tracks at the window's bounds
	drained    bool
}

// measure runs the workload's generator for window on a warmed-up stack,
// drains it, and closes it. The stack's protocol objects stay readable.
func (s *stack) measure(window time.Duration) *windowResult {
	res := &windowResult{s: s}
	res.before = s.snapshotStats()
	res.nodesAt[0] = s.nodeCounters()
	for _, ep := range s.all {
		for sh, t := range ep.taps {
			if t.tr != nil {
				ep.fleet.Node(sh).Do(t.tr.reset)
			}
		}
	}
	runtime.GC()
	d0 := s.deliveredTotal()
	p0 := sampleProc()
	if s.w.perFrame > 0 {
		res.end = s.openLoop(window)
	} else {
		res.end = s.closedLoop(window)
	}
	p1 := sampleProc()
	res.deliveries = s.deliveredTotal() - d0
	res.proc = p0.until(p1)
	res.nodesAt[1] = s.nodeCounters()
	res.after = s.snapshotStats()
	res.drained = s.waitOutstanding(0, s.clock.now()+int64(drainCap))
	s.close()
	return res
}

// setUp builds and warms one stack and returns it with the time that took.
func setUp(w udpWorkload, o stackOpts) (*stack, time.Duration, error) {
	start := time.Now()
	s, err := buildStack(w, o)
	if err != nil {
		return nil, 0, err
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// runOpts are one benchmark run's parameters.
type runOpts struct {
	seed    int64
	seconds float64 // measured window of the untraced run
	warmup  int
	// setups is how many child processes time the set-up (childSetups). 0
	// reports the run's own one set-up instead: the tests' executable is not
	// the benchmark, so it cannot be started as such a child.
	setups    int
	setupOnly bool // this process is such a child
	trace     bool
	traceOut  string
}

// childSetups times the workload's set-up o.setups times, each in a
// process of its own: this executable with -setup-only, from exec to exit —
// runtime start, sockets bound, handlers started, the warm-up delivered
// everywhere (sim-fleet: the fleet built and driven for two virtual
// seconds), everything closed. That is the issue's definition (process
// start → end of warm-up) sampled several times, as the driver asks. Every
// sample starts from the same empty heap: set-ups repeated inside one
// process depended on what the earlier ones had left behind (a whole run's
// worth came out at 30 ms or at 50 ms, the slower the less memory stayed
// resident), and their discarded stacks doubled this process's
// peak_rss_mb.
func childSetups(workload string, o runOpts) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	durations := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		durations = append(durations, time.Since(start).Seconds())
	}
	return durations, nil
}

// tracedShare is the traced window's length relative to the untraced one
// (10 s of 24).
const tracedShare = 10.0 / 24.0

func seconds(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// runUDP runs one real-socket workload: the untraced window every
// end-to-end number comes from and, when asked, the traced window behind
// the per-layer attribution.
func runUDP(w udpWorkload, o runOpts) (*report, error) {
	rep := &report{workload: w.name}
	rep.notes = append(rep.notes,
		"traffic crossed host loopback with multicast emulated as unicast fan-out; link rate and wire latency are not measured")
	window := seconds(o.seconds)
	if o.trace {
		window = seconds(o.seconds * tracedShare)
	}
	so := stackOpts{seed: o.seed, warmup: o.warmup, window: window}
	if o.setupOnly {
		s, _, err := setUp(w, so)
		if err == nil {
			s.close()
		}
		return nil, err
	}
	var setups []float64
	if o.setups > 0 {
		var err error
		if setups, err = childSetups(w.name, o); err != nil {
			return nil, err
		}
	}
	s, own, err := setUp(w, so)
	if err != nil {
		return nil, err
	}
	if setups == nil {
		setups = []float64{own.Seconds()}
	}
	res := s.measure(window)
	if err := rep.addProcess(setups, res.proc, s.points); err != nil {
		return nil, err
	}
	res.addUntraced(rep)
	res.verdict(rep)
	if !o.trace {
		return rep, nil
	}

	so.traced = true
	ts, _, err := setUp(w, so)
	if err != nil {
		return nil, err
	}
	tres := ts.measure(window)
	if tres.deliveries == 0 {
		return nil, errors.New("bench: no deliveries inside the traced window")
	}
	if err := tres.addTraced(rep, res); err != nil {
		return nil, err
	}
	traced := report{workload: w.name}
	tres.verdict(&traced)
	for _, p := range traced.problems {
		rep.problems = append(rep.problems, "traced window: "+p)
	}
	if o.traceOut != "" {
		if err := ts.writeTrace(o.traceOut); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
