// Cluster: parallel same-seed-deterministic execution across independent
// site islands.
//
// A Cluster partitions one simulated internetwork into islands — disjoint
// Networks, each with its own virtual clock, rng and NodeID range — joined
// only at their root routers by cluster-owned cross links (the backbone
// segments). Execution is conservative windowed parallel discrete-event
// simulation: the lookahead Δ is the minimum cross-island latency
// (min up-link delay + min down-link delay), every island runs
// independently for one Δ-window, and a single-threaded barrier exchange
// then routes the window's egress traffic across the backbone. A packet
// leaving island A during window [T, T+Δ) cannot arrive anywhere before
// T+Δ, so no island can ever observe an event out of order.
//
// Determinism: island interiors are sequential and seeded; the exchange
// sorts all cross packets by (departure time, source island, emission
// index) and draws backbone loss/jitter from the cluster rng in that
// order. Parallel and sequential execution therefore produce identical
// traces — verified by FNV trace-hash equality (EnableTraceHash).
package netsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Island is one partition of a Cluster: a Network plus its cluster-owned
// cross links.
type Island struct {
	Net *Network
	// up carries egress from the island root onto the backbone; down
	// carries backbone traffic into the island root.
	up, down *Link

	idx    int
	outbox []egressPacket
	hash   uint64
	tap    TapFunc // user tap, chained after the hash fold
}

// UpLink returns the island's root→backbone link.
func (i *Island) UpLink() *Link { return i.up }

// DownLink returns the island's backbone→root link.
func (i *Island) DownLink() *Link { return i.down }

// TraceHash returns the island-local FNV trace hash (EnableTraceHash).
func (i *Island) TraceHash() uint64 { return i.hash }

// Cluster coordinates windowed parallel execution of islands.
type Cluster struct {
	seed    int64
	stride  int
	islands []*Island
	rng     *rand.Rand
	epoch   time.Time
	now     time.Time
	window  time.Duration
	started bool

	parallel  bool
	hashOn    bool
	crossHash uint64
	crossTap  TapFunc
	refs      []crossRef // the barrier's ordering scratch

	misaddressed uint64
}

// NewCluster creates an empty cluster. stride is the NodeID range reserved
// per island: island k's nodes get IDs [k*stride, (k+1)*stride).
func NewCluster(seed int64, stride int) *Cluster {
	if stride <= 0 {
		panic("netsim: cluster stride must be positive")
	}
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return &Cluster{
		seed:   seed,
		stride: stride,
		rng:    rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		epoch:  epoch,
		now:    epoch,
	}
}

// AddIsland creates the next island with the given cross-link
// configurations (up: island root → backbone, down: backbone → island
// root). Both directions must have positive delay — the cross-island
// latency is the parallel lookahead, so a zero-delay tier boundary is
// rejected rather than silently serialized. Returns the island's Network
// for topology construction.
func (c *Cluster) AddIsland(up, down LinkConfig) (*Island, error) {
	if c.started {
		return nil, fmt.Errorf("netsim: AddIsland after cluster start")
	}
	if up.Delay <= 0 || down.Delay <= 0 {
		return nil, fmt.Errorf("netsim: cross-island links need positive delay for lookahead (got up %v, down %v)",
			up.Delay, down.Delay)
	}
	idx := len(c.islands)
	if up.Name == "" {
		up.Name = fmt.Sprintf("island%d/cross-up", idx)
	}
	if down.Name == "" {
		down.Name = fmt.Sprintf("island%d/cross-down", idx)
	}
	net := New(c.seed ^ (0x7F4A7C15 * int64(idx+1)))
	net.idBase = idx * c.stride
	isl := &Island{
		Net:  net,
		up:   &Link{cfg: up},
		down: &Link{cfg: down},
		idx:  idx,
	}
	net.egress = func(p egressPacket) { isl.outbox = append(isl.outbox, p) }
	net.remoteValid = func(id NodeID) bool {
		// Ids in this island's own range must resolve locally: reaching
		// here means node(id) was nil, so the slot is unpopulated and the
		// send fails synchronously instead of wandering up to the root
		// only to be discarded at the exchange. Remote ranges are accepted
		// by range alone — whether the slot is populated is checked at the
		// barrier (route), since peeking at another island's node table
		// here would race with its window execution.
		k := int(id) / c.stride
		return int(id) >= 0 && k < len(c.islands) && k != idx
	}
	c.islands = append(c.islands, isl)
	return isl, nil
}

// Islands returns the islands in creation order.
func (c *Cluster) Islands() []*Island { return c.islands }

// Island returns island k.
func (c *Cluster) Island(k int) *Island { return c.islands[k] }

// SetParallel selects parallel (one goroutine per island per window) or
// sequential window execution. Traces are identical either way.
func (c *Cluster) SetParallel(on bool) { c.parallel = on }

// SetBulkDelivery toggles bulk leaf delivery on every island.
func (c *Cluster) SetBulkDelivery(on bool) {
	for _, isl := range c.islands {
		isl.Net.SetBulkDelivery(on)
	}
}

// SetCrossTap installs a tap observing backbone (cross-link) traversals.
func (c *Cluster) SetCrossTap(fn TapFunc) { c.crossTap = fn }

// SetIslandTap installs a user tap on island k, chained after the trace
// hash fold when hashing is enabled.
func (c *Cluster) SetIslandTap(k int, fn TapFunc) {
	isl := c.islands[k]
	isl.tap = fn
	c.installTap(isl)
}

// EnableTraceHash folds every link traversal (island-local and backbone)
// into per-island FNV-1a hashes plus a cross hash, so parallel and
// sequential runs can be compared exactly. Call before Start.
func (c *Cluster) EnableTraceHash(on bool) {
	c.hashOn = on
	for _, isl := range c.islands {
		c.installTap(isl)
	}
}

func (c *Cluster) installTap(isl *Island) {
	user := isl.tap
	if !c.hashOn {
		isl.Net.SetTap(user)
		return
	}
	isl.Net.SetTap(func(ev TapEvent) {
		isl.hash = foldTap(isl.hash, ev)
		if user != nil {
			user(ev)
		}
	})
}

// FoldTrace folds one link traversal into a running trace hash: FNV-1a
// over the previous hash and the traversal's time, endpoints, size and
// drop bit, as straight arithmetic so tracing allocates nothing.
func FoldTrace(h uint64, ev TapEvent) uint64 {
	f := uint64(14695981039346656037) // FNV-64 offset basis
	fold := func(v uint64) {
		for i := 0; i < 8; i++ {
			f = (f ^ uint64(byte(v>>(8*i)))) * 1099511628211
		}
	}
	fold(h)
	fold(uint64(ev.Time.UnixNano()))
	fold(uint64(ev.From))
	fold(uint64(ev.To))
	fold(uint64(ev.Size))
	if ev.Dropped {
		fold(1)
	} else {
		fold(0)
	}
	return f
}

// foldTap is FoldTrace with a zero running hash replaced by a fixed seed,
// so the first traversal folds differently. The seed is not the FNV-64
// offset basis; recorded scenario hashes depend on it.
func foldTap(h uint64, ev TapEvent) uint64 {
	if h == 0 {
		h = 1469598103934665603
	}
	return FoldTrace(h, ev)
}

// TraceHash folds the per-island hashes (in island order) and the cross
// hash into one run fingerprint.
func (c *Cluster) TraceHash() uint64 {
	h := uint64(0)
	for _, isl := range c.islands {
		h = foldTap(h, TapEvent{Time: c.epoch, Size: int(isl.hash)})
		h ^= isl.hash * 0x9E3779B97F4A7C15
	}
	return h ^ c.crossHash
}

// Now returns the cluster barrier time: every island has executed exactly
// up to this instant.
func (c *Cluster) Now() time.Time { return c.now }

// Window returns the conservative lookahead used between barriers.
func (c *Cluster) Window() time.Duration { return c.window }

// Events returns the total logical event count across islands (see
// Network.LogicalEvents).
func (c *Cluster) Events() uint64 {
	var sum uint64
	for _, isl := range c.islands {
		sum += isl.Net.LogicalEvents()
	}
	return sum
}

// Deliveries returns the total datagrams delivered across islands.
func (c *Cluster) Deliveries() uint64 {
	var sum uint64
	for _, isl := range c.islands {
		sum += isl.Net.Deliveries()
	}
	return sum
}

// Misaddressed returns how many cross-island unicasts named a NodeID in a
// valid range whose island slot is unpopulated (or hairpinned back to the
// source island). Such packets are discarded at the exchange barrier; a
// nonzero count means some handler is sending to addresses that exist in
// no island.
func (c *Cluster) Misaddressed() uint64 { return c.misaddressed }

// PendingTimers returns the total pending events across island clocks.
func (c *Cluster) PendingTimers() int {
	n := 0
	for _, isl := range c.islands {
		n += isl.Net.Clock().Len()
	}
	return n
}

// Start validates the topology and starts every island's handlers. The
// lookahead window is fixed here as min(up delay) + min(down delay) over
// all islands.
func (c *Cluster) Start() error {
	if c.started {
		return nil
	}
	if len(c.islands) < 2 {
		return fmt.Errorf("netsim: cluster needs at least 2 islands, have %d", len(c.islands))
	}
	minUp, minDown := time.Duration(0), time.Duration(0)
	for k, isl := range c.islands {
		if got := len(isl.Net.nodes); got > c.stride {
			return fmt.Errorf("netsim: island %d has %d nodes, exceeding the id stride %d", k, got, c.stride)
		}
		if !isl.Net.Clock().Now().Equal(c.epoch) {
			return fmt.Errorf("netsim: island %d clock moved before cluster start", k)
		}
		if minUp == 0 || isl.up.cfg.Delay < minUp {
			minUp = isl.up.cfg.Delay
		}
		if minDown == 0 || isl.down.cfg.Delay < minDown {
			minDown = isl.down.cfg.Delay
		}
	}
	c.window = minUp + minDown
	c.started = true
	for _, isl := range c.islands {
		isl.Net.Start()
	}
	return nil
}

// Run advances the whole cluster by d: repeated Δ-windows (parallel or
// sequential island execution) separated by barrier exchanges.
func (c *Cluster) Run(d time.Duration) error {
	if !c.started {
		if err := c.Start(); err != nil {
			return err
		}
	}
	end := c.now.Add(d)
	for c.now.Before(end) {
		stepEnd := c.now.Add(c.window)
		if stepEnd.After(end) {
			stepEnd = end
		}
		if c.parallel {
			var wg sync.WaitGroup
			for _, isl := range c.islands {
				wg.Add(1)
				// stepEnd goes by value: captured, it would escape and
				// cost a sequential run one allocation per window.
				go func(isl *Island, end time.Time) {
					defer wg.Done()
					isl.Net.Clock().RunUntil(end)
				}(isl, stepEnd)
			}
			wg.Wait()
		} else {
			for _, isl := range c.islands {
				isl.Net.Clock().RunUntil(stepEnd)
			}
		}
		c.now = stepEnd
		c.exchange()
	}
	return nil
}

// crossRef orders one egress packet globally: departure time first, then
// source island, then emission order within the island.
type crossRef struct {
	at     time.Time
	island int
	pos    int
}

// exchange routes every packet that reached an island root during the
// last window across the backbone, in deterministic global order. All
// injected arrivals land at or after the barrier (departure + Δ ≥ barrier),
// so destination islands never receive anything in their past.
func (c *Cluster) exchange() {
	refs := c.refs[:0]
	for k, isl := range c.islands {
		for p := range isl.outbox {
			refs = append(refs, crossRef{at: isl.outbox[p].at, island: k, pos: p})
		}
	}
	c.refs = refs
	if len(refs) == 0 {
		return
	}
	slices.SortFunc(refs, func(a, b crossRef) int {
		if c := a.at.Compare(b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.island, b.island); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	tap := func(ev TapEvent) {
		if c.hashOn {
			c.crossHash = foldTap(c.crossHash, ev)
		}
		if c.crossTap != nil {
			c.crossTap(ev)
		}
	}
	for _, ref := range refs {
		src := c.islands[ref.island]
		c.route(src, src.outbox[ref.pos], tap)
	}
	for _, isl := range c.islands {
		isl.outbox = isl.outbox[:0]
	}
}

// route carries one egress packet across the backbone: up the source
// island's cross link once (correlated loss), then down into each
// destination island with members (or the unicast target's island).
func (c *Cluster) route(src *Island, pkt egressPacket, tap TapFunc) {
	mcast := pkt.dst < 0
	if !mcast {
		// A unicast copy's buffer belongs to src's pool: it goes back once
		// routed, after inject copied it into each destination's buffer.
		defer src.Net.putBuf(pkt.data)
	}
	if mcast && pkt.ttl < src.up.cfg.TTLRequired {
		return
	}
	if !mcast {
		// The sender could only range-check a remote id; the barrier is
		// the first point where the destination island's node table can
		// be read without racing its window. Misaddressed packets are
		// counted and discarded here rather than spending backbone
		// traversals (and rng draws) on something undeliverable.
		dst := c.islands[int(pkt.dst)/c.stride]
		if dst == src || dst.Net.node(pkt.dst) == nil {
			c.misaddressed++
			return
		}
	}
	t, ok, td, dup := src.up.traverse(c.rng, tap, pkt.at, pkt.data, pkt.from, pkt.dst, mcast)
	if dup {
		c.fanOut(src, pkt, td, tap)
	}
	if !ok {
		return
	}
	c.fanOut(src, pkt, t, tap)
}

func (c *Cluster) fanOut(src *Island, pkt egressPacket, t time.Time, tap TapFunc) {
	if pkt.dst >= 0 {
		// route already screened hairpins and unpopulated slots.
		dst := c.islands[int(pkt.dst)/c.stride]
		t2, ok, td, dup := dst.down.traverse(c.rng, tap, t, pkt.data, pkt.from, pkt.dst, false)
		if ok {
			dst.Net.inject(t2, pkt)
		}
		if dup {
			dst.Net.inject(td, pkt)
		}
		return
	}
	for _, dst := range c.islands {
		if dst == src || dst.Net.Members(pkt.g) == 0 {
			continue
		}
		if pkt.ttl < dst.down.cfg.TTLRequired {
			continue
		}
		t2, ok, td, dup := dst.down.traverse(c.rng, tap, t, pkt.data, pkt.from, -1, true)
		if ok {
			dst.Net.inject(t2, pkt)
		}
		if dup {
			dst.Net.inject(td, pkt)
		}
	}
}
