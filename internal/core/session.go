package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"madeleine2/internal/metrics"
	"madeleine2/internal/simnet"
)

// Session is one Madeleine II run over a simulated cluster: the set of
// processes (one per node) and the channels they share. Channel creation is
// collective, as in the real library's configuration step.
type Session struct {
	world *simnet.World
	eng   *engine

	mu       sync.Mutex
	channels map[chanKey]*Channel
	nextID   int
	obs      *Observer
	base     *metrics.Registry // session registry when no observer is installed
	faultReg bool              // world fault collector registered
}

type chanKey struct {
	name string
	rank int
}

// SessionSpec configures a session's progress engine (the bounded worker
// pool driving asynchronous conversations — see SubmitPacking).
type SessionSpec struct {
	// Workers is the progress-engine pool size; 0 selects DefaultWorkers.
	// The pool starts lazily on the first asynchronous submission, so
	// pure-sync sessions never spawn it. Mixed send/receive asynchronous
	// workloads need at least 2 workers.
	Workers int
}

// NewSession starts a session spanning every node of the world, with the
// default progress-engine configuration.
func NewSession(w *simnet.World) *Session {
	return NewSessionWith(w, SessionSpec{})
}

// NewSessionWith starts a session with an explicit progress-engine
// configuration.
func NewSessionWith(w *simnet.World, spec SessionSpec) *Session {
	s := &Session{world: w, channels: make(map[chanKey]*Channel)}
	s.eng = newEngine(s, spec)
	return s
}

// Shutdown stops the session's progress engine. Conversations still
// in flight stop making progress, so call it only after collecting every
// outstanding completion; sessions that never submitted asynchronously
// need not call it at all (the pool starts lazily).
func (s *Session) Shutdown() { s.eng.stop() }

// World returns the session's cluster.
func (s *Session) World() *simnet.World { return s.world }

// pinner is a PMM over registered memory. pinned calls add for each
// adapter it registers on, with the adapter's name, the regions
// registered there by every channel on it, and the ones conns hold: their
// rings and their kept registrations.
type pinner interface {
	pinned(conns []*ConnState, add func(adapter string, registered, held int))
}

// CheckQuiescent proves the session at rest: no direction lease held or
// awaited, no send message open, no static buffer obtained and not sent,
// no protocol buffer away from its home (an SBP kernel buffer sent and not
// released), no region pinned on a via NIC or rdma HCA beyond its
// channels' rings and kept registrations, and no conversation queued on
// or running in the progress engine. Each finding is one line naming the
// channel, the local->remote ranks and the direction, or the protocol's
// endpoint or adapter; nil means there is none. It is what reports a
// Table-1 caller's missing End…. Call it once every actor of the session
// has returned: it reads state the lease holders own.
func (s *Session) CheckQuiescent() error {
	s.mu.Lock()
	chans := make([]*Channel, 0, len(s.channels))
	for _, ch := range s.channels {
		chans = append(chans, ch)
	}
	s.mu.Unlock()
	slices.SortFunc(chans, func(a, b *Channel) int {
		return cmp.Or(strings.Compare(a.name, b.name), a.rank-b.rank)
	})
	var lines []string
	seen := map[string]bool{} // channels on one adapter share its endpoint
	// Channels on one adapter share its registrations: their pins are
	// summed before the adapter's count is held to them.
	type tally struct{ registered, held int }
	var adapters []string
	pins := map[string]*tally{}
	for _, ch := range chans {
		var conns []*ConnState
		for _, r := range ch.members {
			if cs := ch.conns[r]; cs != nil {
				lines = append(lines, cs.leftovers()...)
				conns = append(conns, cs)
			}
		}
		if p, ok := ch.pmm.(pinner); ok {
			p.pinned(conns, func(name string, registered, held int) {
				tl := pins[name]
				if tl == nil {
					tl = &tally{registered: registered}
					pins[name] = tl
					adapters = append(adapters, name)
				}
				tl.held += held
			})
		}
		if p, ok := ch.pmm.(interface{ leftovers() []string }); ok {
			for _, l := range p.leftovers() {
				if !seen[l] {
					seen[l] = true
					lines = append(lines, l)
				}
			}
		}
	}
	for _, name := range adapters {
		if tl := pins[name]; tl.registered > tl.held {
			lines = append(lines, fmt.Sprintf("%s: %d regions registered, %d held by its channels' rings and kept registrations",
				name, tl.registered, tl.held))
		}
	}
	if n := s.eng.live.Load(); n != 0 {
		lines = append(lines, fmt.Sprintf("progress engine: %d conversations queued or running", n))
	}
	if len(lines) == 0 {
		return nil
	}
	return errors.New("core: session not quiescent:\n\t" + strings.Join(lines, "\n\t"))
}

// SetObserver installs the session's observability sink. Channels bind
// it at creation, so install it before NewChannel; channels created
// earlier stay unobserved. A nil observer (the default) is the no-op
// fast path.
func (s *Session) SetObserver(o *Observer) {
	s.mu.Lock()
	s.obs = o
	s.mu.Unlock()
}

// Observer returns the session's observability sink (nil when none).
func (s *Session) Observer() *Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.obs
}

// Metrics returns the session's always-on metrics registry: the
// observer's when one is installed, a lazily-created base registry
// otherwise — so the metrics plane exists whether or not the session is
// traced, and an installed observer reports from the same values the
// exposition endpoint serves. Like SetObserver, install the observer
// before creating channels: channels cache metric handles at creation.
func (s *Session) Metrics() *metrics.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metricsLocked()
}

func (s *Session) metricsLocked() *metrics.Registry {
	if s.obs != nil {
		return s.obs.Metrics()
	}
	if s.base == nil {
		s.base = metrics.NewRegistry()
	}
	return s.base
}

// ChannelSpec describes a channel to create: a closed world of
// communication bound to one network interface and one adapter (§2.1) —
// or, with Rails, to several adapters at once (the paper's multi-adapter
// support): large blocks are then striped across the rails and small or
// EXPRESS blocks take the lowest-latency rail.
type ChannelSpec struct {
	// Name identifies the channel session-wide.
	Name string
	// Driver selects the protocol module: "bip", "sisci", "tcp", "via",
	// "sbp". The special driver "sisci-dma" is the SISCI PMM with its DMA
	// transmission module enabled (off by default, §5.2.1). Ignored when
	// Rails is non-empty.
	Driver string
	// Adapter is the per-node adapter index on the driver's network.
	// Ignored when Rails is non-empty.
	Adapter int
	// Nodes lists the member ranks; nil means every node that has an
	// adapter on the driver's network (a cluster-of-clusters session has
	// per-network subsets). With Rails, nil means every node that has
	// every rail's adapter.
	Nodes []int
	// Rails, when non-empty, opens the channel over the listed adapters
	// (same or mixed protocol modules) instead of Driver/Adapter. Blocks
	// larger than StripeSize are striped across all rails concurrently;
	// the rest bypass onto the lowest-latency rail.
	Rails []RailSpec
	// StripeSize is the striping chunk granularity and the express-bypass
	// cutoff of a multi-rail channel; zero selects DefaultStripeSize.
	StripeSize int
}

// RailSpec names one rail of a multi-rail channel: a protocol module and
// the per-node adapter index on that module's network.
type RailSpec struct {
	Driver  string
	Adapter int
}

// NewChannel collectively creates a channel on every member process and
// returns the per-rank channel handles (indexed by rank; non-members are
// nil). Connections between every member pair are established eagerly,
// like the real library's session configuration.
func (s *Session) NewChannel(spec ChannelSpec) (map[int]*Channel, error) {
	if err := validateRails(spec); err != nil {
		return nil, fmt.Errorf("core: channel %q: %w", spec.Name, err)
	}
	stripe := spec.StripeSize
	if stripe == 0 {
		stripe = DefaultStripeSize
	}

	s.mu.Lock()
	id := s.nextID
	// A multi-rail channel reserves one id per rail so every rail's
	// protocol resources (ports, tags, segment ids, VI discriminators)
	// stay collision-free session-wide.
	s.nextID += max(1, len(spec.Rails))
	s.mu.Unlock()

	members := spec.Nodes
	if members == nil {
		for r := 0; r < s.world.Size(); r++ {
			if probeSpec(spec, s.world.Node(r)) == nil {
				members = append(members, r)
			}
		}
	}
	pmms := make(map[int]PMM, len(members))
	for _, r := range members {
		var pmm PMM
		var err error
		if len(spec.Rails) > 0 {
			pmm, err = newRailPMM(s.world.Node(r), spec.Rails, id, stripe)
		} else {
			pmm, err = newPMM(spec.Driver, s.world.Node(r), spec.Adapter, id)
		}
		if err != nil {
			return nil, fmt.Errorf("core: channel %q on rank %d: %w", spec.Name, r, err)
		}
		pmms[r] = pmm
	}
	return s.NewChannelOver(spec.Name, pmms)
}

// NewChannelOver collectively creates the channel name over one protocol
// module per member rank (pmms[r] drives rank r) and returns the per-rank
// handles, as NewChannel does for the modules its spec names. A layer
// with a module of its own — the forwarding layer's Generic TM — calls it
// directly: the channel then has core's one message path, Table-1
// checks, leases, metrics and quiescence report included.
func (s *Session) NewChannelOver(name string, pmms map[int]PMM) (map[int]*Channel, error) {
	members := make([]int, 0, len(pmms))
	for r := range pmms {
		members = append(members, r)
	}
	slices.Sort(members)
	if len(members) < 2 {
		return nil, fmt.Errorf("core: channel %q needs at least two member nodes, have %v", name, members)
	}

	s.mu.Lock()
	obs := s.obs
	reg := s.metricsLocked()
	if !s.faultReg {
		// The world's fault injector publishes into the fault/* namespace
		// by pull: simnet cannot import the registry (layering), so a
		// collector sums Adapter.FaultStats across the world at snapshot
		// time. Registered once, with the first channel.
		s.faultReg = true
		world := s.world
		reg.RegisterCollector(func(emit func(string, int64)) {
			var fs simnet.FaultStats
			for _, a := range world.Adapters() {
				st := a.FaultStats()
				fs.Corrupted += st.Corrupted
				fs.Dropped += st.Dropped
				fs.Delayed += st.Delayed
			}
			if fs.Corrupted != 0 {
				emit("fault/corrupted", fs.Corrupted)
			}
			if fs.Dropped != 0 {
				emit("fault/dropped", fs.Dropped)
			}
			if fs.Delayed != 0 {
				emit("fault/delayed", fs.Delayed)
			}
		})
	}
	s.mu.Unlock()

	chans := make(map[int]*Channel, len(members))
	for _, r := range members {
		pmm := pmms[r]
		ch := &Channel{
			sess:    s,
			name:    name,
			rank:    r,
			pmm:     pmm,
			tms:     pmm.TMs(),
			obs:     obs,
			members: members,
			conns:   make([]*ConnState, members[len(members)-1]+1),

			asyncName: fmt.Sprintf("async:%s:%d<", name, r),
		}
		if len(ch.tms) == 1 {
			ch.end, _ = ch.tms[0].(messageEnder)
		}
		// Per-TM state is numbered once, here, so no block looks a TM up.
		ch.stats.registerTMs(len(ch.tms))
		if obs != nil {
			ch.lbl = newSpanLabels(name, reg, ch.tms)
		}
		ch.bindMetrics(reg)
		chans[r] = ch
		s.mu.Lock()
		if _, dup := s.channels[chanKey{name, r}]; dup {
			s.mu.Unlock()
			return nil, fmt.Errorf("core: duplicate channel name %q on rank %d", name, r)
		}
		s.channels[chanKey{name, r}] = ch
		s.mu.Unlock()
	}

	// Two-phase connection bootstrap: every receiver-side resource first
	// (segments, VI mirrors, pre-posted descriptors), then the sender-side
	// attachments.
	for _, r := range members {
		for _, peer := range members {
			if peer == r {
				continue
			}
			cs := newConnState(chans[r], chans[r].tms, r, peer)
			cs.peer, cs.asyncName = chans[peer], fmt.Sprintf("async:%s:%d>%d", name, r, peer)
			chans[r].conns[peer] = cs
			if err := chans[r].pmm.PreConnect(cs); err != nil {
				return nil, fmt.Errorf("core: channel %q preconnect %d->%d: %w", name, r, peer, err)
			}
		}
	}
	for _, r := range members {
		for _, peer := range members {
			if peer == r {
				continue
			}
			if err := chans[r].pmm.Connect(chans[r].conns[peer]); err != nil {
				return nil, fmt.Errorf("core: channel %q connect %d->%d: %w", name, r, peer, err)
			}
		}
	}
	return chans, nil
}

// validateRails rejects malformed multi-rail specs before any resource
// is allocated.
func validateRails(spec ChannelSpec) error {
	if len(spec.Rails) == 0 {
		if spec.StripeSize != 0 {
			return fmt.Errorf("StripeSize %d set without Rails", spec.StripeSize)
		}
		return nil
	}
	if len(spec.Rails) > maxRails {
		return fmt.Errorf("%d rails exceed the %d-rail limit", len(spec.Rails), maxRails)
	}
	if spec.StripeSize < 0 {
		return fmt.Errorf("negative StripeSize %d", spec.StripeSize)
	}
	seen := make(map[RailSpec]bool, len(spec.Rails))
	for i, r := range spec.Rails {
		if _, err := NetworkOf(r.Driver); err != nil {
			if _, ok := externalDriver(r.Driver); !ok {
				return fmt.Errorf("rail %d: %w", i, err)
			}
		}
		if seen[r] {
			return fmt.Errorf("rail %d duplicates %s[%d]", i, r.Driver, r.Adapter)
		}
		seen[r] = true
	}
	return nil
}

// probeSpec reports whether a node can host the channel: its single
// driver's adapter, or — for a multi-rail channel — every rail's.
func probeSpec(spec ChannelSpec, node *simnet.Node) error {
	if len(spec.Rails) == 0 {
		_, err := newPMMProbe(spec.Driver, node, spec.Adapter)
		return err
	}
	for _, r := range spec.Rails {
		if _, err := newPMMProbe(r.Driver, node, r.Adapter); err != nil {
			return err
		}
	}
	return nil
}
