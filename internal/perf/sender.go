package perf

import (
	"fmt"
	"testing"
	"time"

	"lbrm/internal/core"
	"lbrm/internal/heartbeat"
	"lbrm/internal/obs"
	"lbrm/internal/transport"
	"lbrm/internal/wire"
)

// senderHMin is the sender path's first heartbeat interval: the inline leg
// advances the clock by it after every Send, so exactly one heartbeat
// (carrying the just-sent payload) fires per step.
const senderHMin = 10 * time.Millisecond

// senderPath drives the source's steady state (§2.2): Send one PDU into
// the retention ring, then Recv the primary's cumulative SourceAck that
// releases it. With inline set, the heartbeat timer fires between the two
// and reads its payload back out of the ring.
type senderPath struct {
	snd     *core.Sender
	env     *nullEnv
	primary transport.Addr
	inline  bool
	payload []byte
	buf     []byte
}

func newSenderPath(sink *obs.Sink, inline bool) *senderPath {
	p := &senderPath{
		env:     newNullEnv(),
		primary: nullAddr("primary"),
		inline:  inline,
		payload: make([]byte, 128),
	}
	cfg := core.SenderConfig{
		Source: 7, Group: 1, Primary: p.primary, Obs: sink,
		Heartbeat: heartbeat.Params{HMin: senderHMin, HMax: 8 * senderHMin, Backoff: 2},
	}
	if inline {
		cfg.InlineHeartbeatMax = len(p.payload)
	}
	var err error
	if p.snd, err = core.NewSender(cfg); err != nil {
		panic(err)
	}
	p.snd.Start(p.env)
	return p
}

// step sends one PDU and acknowledges it.
func (p *senderPath) step() {
	seq, err := p.snd.Send(p.payload)
	if err != nil {
		panic(err)
	}
	if p.inline {
		p.env.clock.RunFor(senderHMin)
	}
	ack := wire.Packet{
		Type: wire.TypeSourceAck, Source: 7, Group: 1,
		Seq: seq, ReplicaSeq: seq, Epoch: 1,
	}
	if p.buf, err = ack.AppendMarshal(p.buf[:0]); err != nil {
		panic(err)
	}
	p.snd.Recv(p.primary, p.buf)
}

// warm runs past the growth phase — every ring slot holding a buffer, the
// encode scratch at its steady size — and checks the loop does what it
// claims, so a silently broken step cannot report zero.
func (p *senderPath) warm() {
	const steps = 1024
	for i := 0; i < steps; i++ {
		p.step()
	}
	st := p.snd.Stats()
	if st.DataSent != steps || st.SourceAcks != steps || p.snd.Retained() != 0 {
		panic(fmt.Sprintf("perf: sender warmup sent %d acked %d retained %d of %d",
			st.DataSent, st.SourceAcks, p.snd.Retained(), steps))
	}
	if p.inline && st.InlineHeartbeats != steps {
		panic(fmt.Sprintf("perf: sender warmup fired %d inline heartbeats of %d", st.InlineHeartbeats, steps))
	}
}

// MeasureSenderAllocs returns the average allocations per steady-state
// Send + SourceAck step over runs iterations: with metrics attached when
// sink is non-nil, and with an inline heartbeat firing between the send
// and the ack when inline is set.
func MeasureSenderAllocs(runs int, sink *obs.Sink, inline bool) float64 {
	p := newSenderPath(sink, inline)
	p.warm()
	return testing.AllocsPerRun(runs, p.step)
}
