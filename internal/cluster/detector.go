package cluster

import (
	"math/rand"
	"sync"
	"time"

	"cepshed/internal/runtime"
)

// DetectorConfig tunes the heartbeat failure detector.
type DetectorConfig struct {
	// Interval between heartbeats to an up peer (default 100ms).
	Interval time.Duration
	// Misses is how many consecutive failed heartbeats declare a peer
	// dead (default 3). The detection window — Misses × Interval plus
	// one probe timeout — is one term of the failover loss bound.
	Misses int
	// Policy shapes probe backoff while a peer is down: the same
	// capped, jittered exponential schedule the shard supervisor uses
	// for worker restarts, because the failure mode is the same (don't
	// hammer something that just died; don't wait forever to notice it
	// came back). Zero value: supervisor defaults (10ms base, 2s cap).
	Policy runtime.RestartPolicy
	// FlapDeaths within FlapWindow quarantines the peer (default 3 in
	// 1min): a node that oscillates up/down would otherwise thrash
	// ownership back and forth, migrating state on every transition.
	// A quarantined peer stays "down" for placement even while its
	// heartbeats succeed, until QuarantineFor elapses.
	FlapDeaths    int
	FlapWindow    time.Duration
	QuarantineFor time.Duration
	// Probe performs one heartbeat; non-nil error is a miss. It must
	// enforce its own timeout.
	Probe func(spec NodeSpec) error
	// OnDown/OnUp fire on state transitions, on the detector goroutine
	// for that peer. OnUp fires only after any quarantine expired.
	OnDown func(name string)
	OnUp   func(name string)
	// Seed fixes backoff jitter for tests; 0 seeds from the peer name.
	Seed int64
	Logf func(format string, args ...any)
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.Misses <= 0 {
		c.Misses = 3
	}
	if c.FlapDeaths <= 0 {
		c.FlapDeaths = 3
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = time.Minute
	}
	if c.QuarantineFor <= 0 {
		c.QuarantineFor = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// PeerStatus is one peer's observed liveness, for /cluster.
type PeerStatus struct {
	Name             string    `json:"name" prom:"peer,label"`
	Addr             string    `json:"addr"`
	Up               bool      `json:"up" prom:"cepshed_cluster_peer_up,gauge,1 while the peer answers heartbeats."`
	Misses           int       `json:"misses,omitempty"`
	Deaths           int       `json:"deaths,omitempty"`
	Quarantined      bool      `json:"quarantined,omitempty"`
	QuarantinedUntil time.Time `json:"quarantined_until,omitempty"`
	LastContact      time.Time `json:"last_contact,omitempty"`
}

type peerState struct {
	mu               sync.Mutex
	spec             NodeSpec
	stop             chan struct{}
	up               bool
	misses           int
	deadProbes       int
	deaths           []time.Time
	quarantinedUntil time.Time
	lastContact      time.Time
}

// Detector runs one probing goroutine per peer. Peers start presumed
// up (a cold cluster must not failover nodes that simply haven't
// finished booting); the first Misses failures flip them down.
type Detector struct {
	cfg DetectorConfig

	mu      sync.Mutex
	peers   map[string]*peerState
	started bool

	done chan struct{}
	wg   sync.WaitGroup
}

// NewDetector builds a detector over the given peers (self excluded by
// the caller).
func NewDetector(cfg DetectorConfig, peers []NodeSpec) *Detector {
	d := &Detector{
		cfg:   cfg.withDefaults(),
		peers: map[string]*peerState{},
		done:  make(chan struct{}),
	}
	for _, p := range peers {
		d.peers[p.Name] = &peerState{spec: p, stop: make(chan struct{}), up: true}
	}
	return d
}

// Start launches the per-peer probe loops.
func (d *Detector) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.started = true
	for _, ps := range d.peers {
		d.wg.Add(1)
		go d.run(ps)
	}
}

// Close stops probing and waits for the loops to exit.
func (d *Detector) Close() {
	close(d.done)
	d.wg.Wait()
}

// AddPeer starts probing a new peer (dynamic topology reload). The
// peer starts presumed up, like every peer at boot. No-op when the
// name is already tracked.
func (d *Detector) AddPeer(spec NodeSpec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.peers[spec.Name]; ok {
		return
	}
	ps := &peerState{spec: spec, stop: make(chan struct{}), up: true}
	d.peers[spec.Name] = ps
	if d.started {
		d.wg.Add(1)
		go d.run(ps)
	}
}

// RemovePeer stops probing a peer and forgets its state.
func (d *Detector) RemovePeer(name string) {
	d.mu.Lock()
	ps, ok := d.peers[name]
	if ok {
		delete(d.peers, name)
	}
	d.mu.Unlock()
	if ok {
		close(ps.stop)
	}
}

// PeerUp reports this detector's current view of one peer — the
// answer a survivor asks for before failing a third node over (death
// confirmation). A quarantined peer reports down, matching Status.
func (d *Detector) PeerUp(name string) (up, known bool) {
	d.mu.Lock()
	ps, ok := d.peers[name]
	d.mu.Unlock()
	if !ok {
		return false, false
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.up && !time.Now().Before(ps.quarantinedUntil), true
}

// Status snapshots every peer's state, sorted by name upstream.
func (d *Detector) Status() []PeerStatus {
	d.mu.Lock()
	peers := make([]*peerState, 0, len(d.peers))
	for _, ps := range d.peers {
		peers = append(peers, ps)
	}
	d.mu.Unlock()
	out := make([]PeerStatus, 0, len(peers))
	for _, ps := range peers {
		ps.mu.Lock()
		q := time.Now().Before(ps.quarantinedUntil)
		out = append(out, PeerStatus{
			Name:             ps.spec.Name,
			Addr:             ps.spec.Addr,
			Up:               ps.up && !q,
			Misses:           ps.misses,
			Deaths:           len(ps.deaths),
			Quarantined:      q,
			QuarantinedUntil: ps.quarantinedUntil,
			LastContact:      ps.lastContact,
		})
		ps.mu.Unlock()
	}
	return out
}

func (d *Detector) run(ps *peerState) {
	defer d.wg.Done()
	seed := d.cfg.Seed
	if seed == 0 {
		seed = int64(nameHash(ps.spec.Name))
	}
	rng := rand.New(rand.NewSource(seed))
	timer := time.NewTimer(d.cfg.Interval)
	defer timer.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-ps.stop:
			return
		case <-timer.C:
		}
		err := d.cfg.Probe(ps.spec)
		timer.Reset(d.step(ps, err, rng))
	}
}

// step folds one probe result into the peer's state and returns the
// delay before the next probe.
func (d *Detector) step(ps *peerState, err error, rng *rand.Rand) time.Duration {
	ps.mu.Lock()
	now := time.Now()
	if err == nil {
		ps.lastContact = now
		ps.misses = 0
		ps.deadProbes = 0
		wasDown := !ps.up
		ps.up = true
		quarantined := now.Before(ps.quarantinedUntil)
		ps.mu.Unlock()
		if wasDown && !quarantined {
			d.cfg.Logf("cluster: peer %s back up", ps.spec.Name)
			if d.cfg.OnUp != nil {
				d.cfg.OnUp(ps.spec.Name)
			}
		}
		// A quarantined peer answering heartbeats stays benched until the
		// quarantine expires; the next successful probe after expiry
		// revives it (wasDown stays true because OnUp never fired).
		if quarantined {
			ps.mu.Lock()
			ps.up = false
			ps.mu.Unlock()
			return d.cfg.Interval
		}
		return d.cfg.Interval
	}
	ps.misses++
	if ps.up && ps.misses >= d.cfg.Misses {
		ps.up = false
		ps.deaths = append(ps.deaths, now)
		// Trim deaths outside the flap window.
		cut := 0
		for cut < len(ps.deaths) && now.Sub(ps.deaths[cut]) > d.cfg.FlapWindow {
			cut++
		}
		ps.deaths = ps.deaths[cut:]
		flapping := len(ps.deaths) >= d.cfg.FlapDeaths
		if flapping {
			ps.quarantinedUntil = now.Add(d.cfg.QuarantineFor)
		}
		ps.mu.Unlock()
		if flapping {
			d.cfg.Logf("cluster: peer %s flapping (%d deaths in %v), quarantined for %v",
				ps.spec.Name, d.cfg.FlapDeaths, d.cfg.FlapWindow, d.cfg.QuarantineFor)
		} else {
			d.cfg.Logf("cluster: peer %s down after %d missed heartbeats", ps.spec.Name, d.cfg.Misses)
		}
		if d.cfg.OnDown != nil {
			d.cfg.OnDown(ps.spec.Name)
		}
		return d.cfg.Policy.Backoff(1, rng)
	}
	if !ps.up {
		ps.deadProbes++
		n := ps.deadProbes
		ps.mu.Unlock()
		return d.cfg.Policy.Backoff(n, rng)
	}
	ps.mu.Unlock()
	return d.cfg.Interval
}
