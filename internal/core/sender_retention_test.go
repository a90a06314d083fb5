package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"lbrm/internal/transport"
	"lbrm/internal/wire"
)

// TestSenderInlineHeartbeatCopiesPayload: Send copies the payload before it
// returns, so an application that reuses its buffer (any frame loop) still
// gets heartbeats carrying the bytes that were sent under that seq — also
// after the primary's ack released the packet.
func TestSenderInlineHeartbeatCopiesPayload(t *testing.T) {
	s, env := newSender(t, SenderConfig{Heartbeat: hbParams, InlineHeartbeatMax: 64})
	buf := []byte("frame-1")
	s.Send(buf)
	copy(buf, "XXXXXXX")
	inline := func(when string) {
		t.Helper()
		env.Mcasts = nil
		env.Advance(hbParams.HMax)
		pkts := env.McastPackets()
		if len(pkts) == 0 {
			t.Fatalf("%s: no heartbeat fired", when)
		}
		for _, p := range pkts {
			if p.Type != wire.TypeHeartbeat || p.Seq != 1 || p.Flags&wire.FlagInlineData == 0 ||
				string(p.Payload) != "frame-1" {
				t.Fatalf("%s: heartbeat = %+v, want inline \"frame-1\" under seq 1", when, p)
			}
		}
	}
	inline("retained")
	ack := wire.Packet{Type: wire.TypeSourceAck, Source: tSource, Group: tGroup, Seq: 1, ReplicaSeq: 1, Epoch: 1}
	s.Recv(tPrimary, mustPkt(t, ack))
	if s.Retained() != 0 {
		t.Fatalf("Retained = %d after ack, want 0", s.Retained())
	}
	inline("released")
}

// TestSenderDropsSourceAckBeyondLastSeq: an ack for a seq never sent must
// not move a watermark. Accepted, it would release every later packet the
// moment any ack arrived, whether or not the log it vouches for has it.
func TestSenderDropsSourceAckBeyondLastSeq(t *testing.T) {
	for _, tc := range []struct {
		name       string
		durability Durability
		forged     wire.Packet // received after a genuine ack of 1–2 of 3
		later      wire.Packet // genuine, received after seq 4 is sent
	}{
		{"seq", ReleaseOnPrimaryAck,
			wire.Packet{Seq: 103, ReplicaSeq: 2}, wire.Packet{Seq: 2, ReplicaSeq: 2}},
		{"replica-seq", ReleaseOnReplicaAck,
			wire.Packet{Seq: 2, ReplicaSeq: 103}, wire.Packet{Seq: 4, ReplicaSeq: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, env := newSender(t, SenderConfig{Heartbeat: hbParams, Durability: tc.durability})
			ack := func(p wire.Packet) {
				p.Type, p.Source, p.Group, p.Epoch = wire.TypeSourceAck, tSource, tGroup, 1
				s.Recv(tPrimary, mustPkt(t, p))
			}
			for i := 0; i < 3; i++ {
				s.Send([]byte("old"))
			}
			ack(wire.Packet{Seq: 2, ReplicaSeq: 2})
			ack(tc.forged)
			s.Send([]byte("new"))
			ack(tc.later)
			if s.Retained() != 2 {
				t.Fatalf("Retained = %d, want 2 (seqs 3 and 4)", s.Retained())
			}
			env.Sents = nil
			nack := wire.Packet{Type: wire.TypeNack, Source: tSource, Group: tGroup,
				Ranges: []wire.SeqRange{{From: 4, To: 4}}}
			s.Recv(tPrimary, mustPkt(t, nack))
			sents := env.SentPackets()
			if len(sents) != 1 || sents[0].Type != wire.TypeRetrans || sents[0].Seq != 4 ||
				string(sents[0].Payload) != "new" {
				t.Fatalf("NACK for seq 4 served %v, want its retransmission", sents)
			}
			if st := s.Stats(); st.Malformed != 1 || st.SourceAcks != 2 {
				t.Fatalf("Malformed = %d SourceAcks = %d, want the forged ack counted malformed only", st.Malformed, st.SourceAcks)
			}
		})
	}
}

// retentionModel is the naive statement of the sender's retention rule: a
// map from seq to payload, walked end to end on every ack.
type retentionModel struct {
	replicaDurable bool
	seq            uint64
	primaryAcked   uint64
	replicaAcked   uint64
	released       uint64
	retained       map[uint64][]byte
}

func (m *retentionModel) send(payload []byte) {
	m.seq++
	m.retained[m.seq] = append([]byte(nil), payload...)
}

func (m *retentionModel) ack(seq, replicaSeq uint64) {
	if seq > m.seq || replicaSeq > m.seq {
		return
	}
	m.primaryAcked = max(m.primaryAcked, seq)
	m.replicaAcked = max(m.replicaAcked, replicaSeq)
	release := m.primaryAcked
	if m.replicaDurable {
		release = min(release, m.replicaAcked)
	}
	m.released = max(m.released, release)
	for k := range m.retained {
		if k <= release {
			delete(m.retained, k)
		}
	}
}

// within returns the retained seqs in [from, to], ascending.
func (m *retentionModel) within(from, to uint64) []uint64 {
	var out []uint64
	for k := range m.retained {
		if from <= k && k <= to {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// TestSenderRetentionMatchesMapModel drives random sends, cumulative /
// duplicate / forged acks, NACK ranges and failovers through the sender
// and the map model side by side: same Retained(), same ErrRetainLimit
// onset, every served and re-supplied payload byte-for-byte and in order —
// across several doublings of the ring.
func TestSenderRetentionMatchesMapModel(t *testing.T) {
	const retainLimit = 300
	for _, durability := range []Durability{ReleaseOnPrimaryAck, ReleaseOnReplicaAck} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s, env := newSender(t, SenderConfig{
				Heartbeat:   hbParams,
				Durability:  durability,
				RetainLimit: retainLimit,
				Replicas:    []transport.Addr{tReplica1},
				// Failover runs only when the test starts one.
				FailoverTimeout: time.Hour,
				FailoverWait:    50 * time.Millisecond,
			})
			m := &retentionModel{
				replicaDurable: durability == ReleaseOnReplicaAck,
				retained:       make(map[uint64][]byte),
			}
			primary := transport.Addr(tPrimary)
			buf := make([]byte, 300)           // the application's one reused frame buffer
			var lastSeq, lastReplicaSeq uint64 // the previous ack, for replays
			limitHits := 0

			send := func() {
				payload := buf[:rng.Intn(len(buf)+1)]
				rng.Read(payload)
				seq, err := s.Send(payload)
				if len(m.retained) >= retainLimit {
					if !errors.Is(err, ErrRetainLimit) {
						t.Fatalf("Send with %d retained: err = %v, want ErrRetainLimit", len(m.retained), err)
					}
					limitHits++
				} else {
					if err != nil {
						t.Fatalf("Send with %d retained: %v", len(m.retained), err)
					}
					m.send(payload)
					if seq != m.seq {
						t.Fatalf("Send assigned seq %d, model %d", seq, m.seq)
					}
				}
				rng.Read(buf) // scribble: retention must hold its own copy
			}
			recvAck := func(seq, replicaSeq uint64) {
				s.Recv(primary, mustPkt(t, wire.Packet{Type: wire.TypeSourceAck, Source: tSource, Group: tGroup,
					Seq: seq, ReplicaSeq: replicaSeq, Epoch: s.PrimaryEpoch()}))
				m.ack(seq, replicaSeq)
				lastSeq, lastReplicaSeq = seq, replicaSeq
			}
			// expectRetrans checks that exactly the model's payloads for
			// seqs went to addr, in that order.
			expectRetrans := func(what string, addr transport.Addr, seqs []uint64) {
				t.Helper()
				var got []wire.Packet
				for i, p := range env.SentPackets() {
					if p.Type == wire.TypeRetrans {
						if env.Sents[i].To != addr {
							t.Fatalf("%s: retransmission to %v, want %v", what, env.Sents[i].To, addr)
						}
						got = append(got, p)
					}
				}
				if len(got) != len(seqs) {
					t.Fatalf("%s: %d retransmissions, model has %d (%v)", what, len(got), len(seqs), seqs)
				}
				for i, seq := range seqs {
					if got[i].Seq != seq || !bytes.Equal(got[i].Payload, m.retained[seq]) {
						t.Fatalf("%s: retransmission %d is seq %d (%d bytes), model seq %d (%d bytes)",
							what, i, got[i].Seq, len(got[i].Payload), seq, len(m.retained[seq]))
					}
				}
			}

			for step := 0; step < 6000; step++ {
				switch r := rng.Intn(100); {
				case r < 55:
					send()
				case r < 58: // a burst nobody acks: backlog, ring growth, the limit
					for n := rng.Intn(2 * retainLimit); n > 0; n-- {
						send()
					}
				case r < 70: // cumulative ack somewhere in the unreleased range
					seq := m.released + uint64(rng.Int63n(int64(m.seq-m.released)+1))
					recvAck(seq, uint64(rng.Int63n(int64(seq)+1)))
				case r < 75: // both watermarks catch up
					recvAck(m.seq, m.seq)
				case r < 80: // the previous ack again (a forged one may be in range by now)
					recvAck(lastSeq, lastReplicaSeq)
				case r < 83: // forged: ahead of anything sent
					recvAck(m.seq+1+uint64(rng.Intn(100)), m.seq)
				case r < 97: // NACK range straddling released, retained and unsent seqs
					from := m.released + uint64(rng.Intn(40))
					if back := uint64(rng.Intn(10)); back < from {
						from -= back
					}
					to := from + uint64(rng.Intn(40))
					env.Sents = nil
					s.Recv(tLoggerA, mustPkt(t, wire.Packet{Type: wire.TypeNack, Source: tSource, Group: tGroup,
						Ranges: []wire.SeqRange{{From: from, To: to}}}))
					expectRetrans("nack", tLoggerA, m.within(from, to))
				default: // failover: the winning replica is re-supplied in order
					if len(m.retained) == 0 {
						continue
					}
					bestSeq := uint64(rng.Int63n(int64(m.seq) + 2))
					s.beginFailover()
					s.Recv(tReplica1, mustPkt(t, wire.Packet{Type: wire.TypeLogStateReply,
						Source: tSource, Group: tGroup, Seq: bestSeq}))
					env.Sents = nil
					env.Advance(60 * time.Millisecond)
					sents := env.SentPackets()
					if len(sents) == 0 || sents[0].Type != wire.TypePromote || sents[0].Seq != m.released {
						t.Fatalf("failover: first unicast %v, want Promote at watermark %d", sents, m.released)
					}
					expectRetrans("failover", tReplica1, m.within(bestSeq+1, m.seq))
					primary = tReplica1
				}
				if s.Retained() != len(m.retained) {
					t.Fatalf("step %d: Retained = %d, model %d", step, s.Retained(), len(m.retained))
				}
				env.Mcasts = nil
			}
			if limitHits == 0 || len(s.slots) < 256 {
				t.Fatalf("seed %d: %d limit hits, ring of %d slots: the run never filled retention", seed, limitHits, len(s.slots))
			}
		}
	}
}
