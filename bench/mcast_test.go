package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lbrm/internal/transport"
	"lbrm/internal/vtime"
	"lbrm/internal/wire"
)

// fakeAddr and fakeEnv stand in for a udp.Node: the env records what the
// tap hands down to the transport.
type fakeAddr string

func (fakeAddr) Network() string  { return "fake" }
func (a fakeAddr) String() string { return string(a) }

type sentGram struct {
	to   transport.Addr
	data []byte
}

type fakeEnv struct {
	self   fakeAddr
	sent   []sentGram
	joined []wire.GroupID // joins that reached the real transport (must stay empty)
	mcasts int            // multicasts that reached the real transport (must stay 0)
}

func (e *fakeEnv) Now() time.Time { return time.Unix(0, 0) }
func (e *fakeEnv) AfterFunc(d time.Duration, fn func()) vtime.Timer {
	return vtime.Real{}.AfterFunc(time.Hour, fn)
}
func (e *fakeEnv) Send(to transport.Addr, data []byte) error {
	e.sent = append(e.sent, sentGram{to, append([]byte(nil), data...)})
	return nil
}
func (e *fakeEnv) Multicast(wire.GroupID, int, []byte) error { e.mcasts++; return nil }
func (e *fakeEnv) Join(g wire.GroupID) error                 { e.joined = append(e.joined, g); return nil }
func (e *fakeEnv) Leave(wire.GroupID) error                  { return nil }
func (e *fakeEnv) LocalAddr() transport.Addr                 { return e.self }
func (e *fakeEnv) ParseAddr(s string) (transport.Addr, error) {
	return fakeAddr(s), nil
}
func (e *fakeEnv) Rand() *rand.Rand { return rand.New(rand.NewSource(1)) }

// recorder is the handler behind a tap: it joins a group on Start and
// keeps every datagram it is handed.
type recorder struct {
	group wire.GroupID
	env   transport.Env
	got   [][]byte
}

func (r *recorder) Start(env transport.Env) {
	r.env = env
	if err := env.Join(r.group); err != nil {
		panic(err)
	}
}
func (r *recorder) Recv(_ transport.Addr, data []byte) {
	r.got = append(r.got, append([]byte(nil), data...))
}

func mustMarshal(t *testing.T, p wire.Packet) []byte {
	t.Helper()
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func bursts(l *lane, n int) [][2]uint64 {
	out := make([][2]uint64, n)
	for i := range out {
		out[i] = [2]uint64{l.from, l.to}
		l.advance()
	}
	return out
}

func TestDropScheduleIsAFunctionOfTheSeed(t *testing.T) {
	cfg := laneFor(laneSingle, 0.04, 16, 64)
	a := bursts(newLane(7, cfg, 2000, 1<<40), 500)
	b := bursts(newLane(7, cfg, 2000, 1<<40), 500)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed, different drop schedules")
	}
	if c := bursts(newLane(8, cfg, 2000, 1<<40), 500); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds, same drop schedule")
	}
	var dropped uint64
	for i, br := range a {
		if br[0] <= 2000 {
			t.Fatalf("burst %d starts at %d, inside the warm-up", i, br[0])
		}
		if n := br[1] - br[0] + 1; n < 16 || n > 64 {
			t.Fatalf("burst %d has %d seqs, want 16..64", i, n)
		}
		if i > 0 && br[0] <= a[i-1][1]+1 {
			t.Fatalf("burst %d touches burst %d", i, i-1)
		}
		dropped += br[1] - br[0] + 1
	}
	if share := float64(dropped) / float64(a[len(a)-1][1]-2000); share < 0.03 || share > 0.05 {
		t.Fatalf("lane drops %.3f of the stream, want about 0.04", share)
	}
}

func TestPayloadsAreAFunctionOfTheSeed(t *testing.T) {
	mk := func(seed int64) *txStream {
		s, err := buildStack(udpWorkloads[wlSteady], stackOpts{seed: seed, window: time.Second})
		if err != nil {
			t.Skipf("udp unavailable: %v", err)
		}
		s.close()
		return s.tx[0]
	}
	a, b, c := mk(3), mk(3), mk(4)
	for _, seq := range []uint64{1, 2, 239, 240, 241, 100000} {
		a.fill(seq)
		b.fill(seq)
		c.fill(seq)
		if !bytes.Equal(a.buf, b.buf) {
			t.Fatalf("seq %d: same seed, different payload bytes", seq)
		}
		if bytes.Equal(a.buf, c.buf) {
			t.Fatalf("seq %d: different seeds, same payload bytes", seq)
		}
		if !a.verify(b.buf, seq) {
			t.Fatalf("seq %d: own payload does not verify", seq)
		}
		if a.verify(b.buf, seq+1) || a.verify(c.buf, seq) {
			t.Fatalf("seq %d: a foreign payload verifies", seq)
		}
	}
}

// TestInjectorDropsFirstTransmissionsOnly feeds one tap every kind of
// datagram on a seq the schedule drops: only the original DATA may vanish.
func TestInjectorDropsFirstTransmissionsOnly(t *testing.T) {
	ln := newLane(1, laneFor(laneSingle, 0.5, 1, 1), 0, 1<<40)
	seq := ln.from // the first scheduled drop
	rec := &recorder{group: 1}
	tp := newTap(rec, newFabric(), &runClock{base: time.Now()})
	tp.inject = &injector{lanes: []*lane{newLane(1, laneFor(laneSingle, 0.5, 1, 1), 0, 1<<40)}, drops: make([]dropRec, 0, 8)}
	tp.Start(&fakeEnv{self: "rx"})

	payload := []byte("payload")
	pass := []wire.Packet{
		{Type: wire.TypeRetrans, Flags: wire.FlagRetransmission | wire.FlagFromLogger, Seq: seq, Payload: payload},
		{Type: wire.TypeRetrans, Flags: wire.FlagRetransmission | wire.FlagFromLogger | wire.FlagViaPrimary, Seq: seq, Payload: payload},
		{Type: wire.TypeData, Flags: wire.FlagRetransmission, Seq: seq, Payload: payload},
		{Type: wire.TypeHeartbeat, Seq: seq, HeartbeatIdx: 1},
		{Type: wire.TypeHeartbeat, Flags: wire.FlagInlineData, Seq: seq, HeartbeatIdx: 1, Payload: payload},
		{Type: wire.TypeNack, Ranges: []wire.SeqRange{{From: seq, To: seq}}},
		{Type: wire.TypeSourceAck, Seq: seq},
		{Type: wire.TypePrimaryRedirect, Seq: seq, Addr: "x:1"},
	}
	for i := range pass {
		pass[i].Source, pass[i].Group = 1, 1
		gram := mustMarshal(t, pass[i])
		before := len(rec.got)
		tp.Recv(fakeAddr("peer"), gram)
		if len(rec.got) != before+1 || !bytes.Equal(rec.got[before], gram) {
			t.Fatalf("%v on a scheduled seq did not reach the handler untouched", pass[i].Type)
		}
	}
	first := mustMarshal(t, wire.Packet{Type: wire.TypeData, Source: 1, Group: 1, Seq: seq, Payload: payload})
	before := len(rec.got)
	tp.Recv(fakeAddr("peer"), first)
	if len(rec.got) != before {
		t.Fatal("the first transmission of a scheduled seq reached the handler")
	}
	if len(tp.inject.drops) != 1 || tp.inject.drops[0].seq != seq {
		t.Fatalf("drop record = %+v, want one drop of seq %d", tp.inject.drops, seq)
	}
	if tp.inject.find(seq) == nil || tp.inject.find(seq+1) != nil {
		t.Fatal("find does not locate exactly the recorded drop")
	}
}

// TestTapPassThrough: without an injector a tap changes nothing a handler
// receives or sends, and multicast turns into one Send per other member.
func TestTapPassThrough(t *testing.T) {
	fab := newFabric()
	clock := &runClock{base: time.Now()}
	var envs []*fakeEnv
	var recs []*recorder
	for _, name := range []fakeAddr{"a", "b", "c"} {
		env, rec := &fakeEnv{self: name}, &recorder{group: 9}
		newTap(rec, fab, clock).Start(env)
		envs, recs = append(envs, env), append(recs, rec)
	}
	outsider := &recorder{group: 10}
	newTap(outsider, fab, clock).Start(&fakeEnv{self: "d"})

	gram := mustMarshal(t, wire.Packet{Type: wire.TypeData, Source: 1, Group: 9, Seq: 5, Payload: []byte("abc")})
	if err := recs[0].env.Multicast(9, transport.TTLSite, gram); err != nil {
		t.Fatal(err)
	}
	if len(envs[0].sent) != 2 || envs[0].sent[0].to != fakeAddr("b") || envs[0].sent[1].to != fakeAddr("c") {
		t.Fatalf("multicast from a went to %+v, want one datagram each to b and c", envs[0].sent)
	}
	for _, g := range envs[0].sent {
		if !bytes.Equal(g.data, gram) {
			t.Fatal("fan-out changed the datagram")
		}
	}
	if err := recs[1].env.Send(fakeAddr("a"), gram); err != nil {
		t.Fatal(err)
	}
	if len(envs[1].sent) != 1 || !bytes.Equal(envs[1].sent[0].data, gram) {
		t.Fatal("unicast send did not pass through untouched")
	}
	for _, env := range envs {
		if len(env.joined) != 0 || env.mcasts != 0 {
			t.Fatal("a join or multicast reached the real transport")
		}
	}
	if err := recs[2].env.Leave(9); err != nil {
		t.Fatal(err)
	}
	envs[0].sent = nil
	if err := recs[0].env.Multicast(9, transport.TTLGlobal, gram); err != nil {
		t.Fatal(err)
	}
	if len(envs[0].sent) != 1 || envs[0].sent[0].to != fakeAddr("b") {
		t.Fatalf("after c left, multicast went to %+v, want b only", envs[0].sent)
	}

	tp := newTap(recs[0], fab, clock)
	tp.Start(&fakeEnv{self: "e"})
	n := len(recs[0].got)
	junk := []byte("not an LBRM datagram")
	tp.Recv(fakeAddr("x"), gram)
	tp.Recv(fakeAddr("x"), junk)
	if len(recs[0].got) != n+2 || !bytes.Equal(recs[0].got[n], gram) || !bytes.Equal(recs[0].got[n+1], junk) {
		t.Fatal("inbound datagrams did not pass through untouched")
	}
}

// TestSiteWideBurstsHitTheWholeSite builds the lossy stack and checks the
// lanes each tap got: the site lane drops the same seqs at the secondary
// and at both receivers, the single lane only at receiver 0.
func TestSiteWideBurstsHitTheWholeSite(t *testing.T) {
	s, err := buildStack(udpWorkloads[wlLossy], stackOpts{seed: 5, warmup: 2000, window: 100 * time.Second})
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer s.close()
	sec, rx0, rx1 := s.secondary.taps[0].inject, s.receivers[0].taps[0].inject, s.receivers[1].taps[0].inject
	if sec == nil || rx0 == nil || rx1 == nil {
		t.Fatal("a site member has no injector")
	}
	if len(sec.lanes) != 1 || len(rx1.lanes) != 1 || len(rx0.lanes) != 2 {
		t.Fatalf("lanes: secondary %d, receiver0 %d, receiver1 %d; want 1, 2, 1", len(sec.lanes), len(rx0.lanes), len(rx1.lanes))
	}
	for _, ep := range []*endpoint{s.primary, s.sender} {
		if ep.taps[0].inject != nil {
			t.Fatalf("%s has an injector", ep.role)
		}
	}
	var site, single int
	last := s.plannedSeqs()
	for seq := uint64(1); seq <= last; seq++ {
		p := wire.Packet{Type: wire.TypeData, Seq: seq}
		a, b, c := sec.lanes[0].hit(seq), rx1.lanes[0].hit(seq), rx0.lanes[1].hit(seq)
		if a != b || a != c {
			t.Fatalf("seq %d: site lane hits secondary=%v receiver1=%v receiver0=%v", seq, a, b, c)
		}
		if seq <= 2001 && (a || rx0.shouldDrop(&p)) {
			t.Fatalf("seq %d dropped inside the warm-up", seq)
		}
		if a {
			site++
		}
		if rx0.lanes[0].hit(seq) {
			single++
		}
	}
	if share := float64(site) / float64(last); share < 0.005 || share > 0.02 {
		t.Errorf("the site lane dropped %.4f of the stream, want about 0.01", share)
	}
	if share := float64(single) / float64(last); share < 0.025 || share > 0.06 {
		t.Errorf("the single lane dropped %.4f of the stream, want about 0.04", share)
	}
	for seq := last - tailGuard + 1; seq <= last+1000; seq++ {
		if rx0.lanes[0].hit(seq) || rx0.lanes[1].hit(seq) {
			t.Fatalf("seq %d dropped inside the stream's guarded tail", seq)
		}
	}
}
