package cluster

import (
	"sort"
	"sync"
)

// SlotKey identifies one unit of placement: a query instance (by its
// registry fingerprint, identical on every node because it hashes the
// spec) and one of its shard slots.
type SlotKey struct {
	FP   uint64 `json:"fp"`
	Slot int    `json:"slot"`
}

// Override is one explicit placement decision, recorded when a slot
// moved off its rendezvous-default node (planned handoff or failover).
// Epoch is the slot's fencing counter: every ownership change bumps
// it, every forward carries it, and in gossip conflicts the higher
// epoch wins — so after a partition heals, every node converges on
// the most recent ownership decision rather than on gossip order.
type Override struct {
	SlotKey
	Node  string `json:"node"`
	Epoch uint64 `json:"epoch"`
}

// ovEntry is the stored form of an override.
type ovEntry struct {
	node  string
	epoch uint64
}

// Placement is a node's view of slot ownership: the static member
// list, which members it currently considers up, and the override map.
// Ownership is computed, not stored: Owner() consults overrides first,
// then rendezvous-hashes over up nodes. Because the hash and the
// topology are identical everywhere, two nodes with the same liveness
// view and override set always agree on every owner — the only
// coordination the cluster needs is gossiping overrides.
//
// Overrides are soft state: they live in memory and are re-exchanged
// on /cluster/placement. A full cluster restart forgets them and
// ownership reverts to pure rendezvous; that is safe (the ceded
// tombstones prevent duplicate replay) but documented as a known gap
// in docs/CLUSTER.md.
type Placement struct {
	mu        sync.RWMutex
	names     []string // sorted; replaced wholesale by SetMembers
	member    map[string]bool
	down      map[string]bool
	overrides map[SlotKey]ovEntry
	version   uint64
}

// NewPlacement builds a placement over the topology's node names, all
// initially up.
func NewPlacement(names []string) *Placement {
	s := append([]string(nil), names...)
	sort.Strings(s)
	member := make(map[string]bool, len(s))
	for _, n := range s {
		member[n] = true
	}
	return &Placement{
		names:     s,
		member:    member,
		down:      map[string]bool{},
		overrides: map[SlotKey]ovEntry{},
	}
}

// mix64 is splitmix64's finalizer — a cheap, deterministic 64-bit
// avalanche shared by every node (no per-process seed, by design).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func nameHash(name string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * fnvPrime
	}
	return h
}

// rendezvous picks the eligible node with the highest score for the
// slot (highest-random-weight hashing): moving ONE node in or out of
// the eligible set only moves the slots that node wins or loses, so a
// failover migrates the dead node's slots and nothing else.
func rendezvous(fp uint64, slot int, names []string, eligible func(string) bool) string {
	best, bestScore := "", uint64(0)
	for _, n := range names {
		if !eligible(n) {
			continue
		}
		score := mix64(fp ^ mix64(uint64(slot)) ^ nameHash(n))
		if best == "" || score > bestScore || (score == bestScore && n < best) {
			best, bestScore = n, score
		}
	}
	return best
}

// Owner returns the node that owns (fp, slot) under the current
// liveness view, and false when no node is up. An override pointing at
// a down node is ignored (failover will re-point it).
func (p *Placement) Owner(fp uint64, slot int) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ownerLocked(fp, slot, p.down)
}

func (p *Placement) ownerLocked(fp uint64, slot int, down map[string]bool) (string, bool) {
	if o, ok := p.overrides[SlotKey{FP: fp, Slot: slot}]; ok && p.member[o.node] && !down[o.node] {
		return o.node, true
	}
	n := rendezvous(fp, slot, p.names, func(name string) bool { return !down[name] })
	return n, n != ""
}

// OwnerEpoch returns the owner plus the slot's current fencing epoch
// (zero when the slot has never moved off its rendezvous default).
func (p *Placement) OwnerEpoch(fp uint64, slot int) (string, uint64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	owner, ok := p.ownerLocked(fp, slot, p.down)
	return owner, p.overrides[SlotKey{FP: fp, Slot: slot}].epoch, ok
}

// Epoch returns the slot's current fencing epoch.
func (p *Placement) Epoch(fp uint64, slot int) uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.overrides[SlotKey{FP: fp, Slot: slot}].epoch
}

// OwnerIfUp computes the owner pretending `node` were up — the
// "before" view a survivor uses to decide which slots a freshly dead
// node was responsible for.
func (p *Placement) OwnerIfUp(fp uint64, slot int, node string) (string, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.down[node] {
		return p.ownerLocked(fp, slot, p.down)
	}
	view := make(map[string]bool, len(p.down))
	for k, v := range p.down {
		view[k] = v
	}
	delete(view, node)
	return p.ownerLocked(fp, slot, view)
}

// SetDown flips one node's liveness in this view.
func (p *Placement) SetDown(name string, down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down[name] == down {
		return
	}
	if down {
		p.down[name] = true
	} else {
		delete(p.down, name)
	}
	p.version++
}

// Down reports whether the view currently considers the node down.
func (p *Placement) IsDown(name string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.down[name]
}

// AnyDown reports whether any member is considered down — the
// cluster-degraded signal (/cluster degraded).
func (p *Placement) AnyDown() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.down) > 0
}

// SetOverride records an explicit owner for a slot, bumping its
// fencing epoch past everything this node has seen — the caller just
// changed ownership (handoff, failover, membership pin), and the bump
// is what makes the change win gossip merges and fence stale forwards.
// It returns the new epoch.
func (p *Placement) SetOverride(k SlotKey, node string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.overrides[k]
	if cur.node == node && cur.epoch > 0 {
		return cur.epoch
	}
	e := cur.epoch + 1
	p.overrides[k] = ovEntry{node: node, epoch: e}
	p.version++
	return e
}

// AdoptOverride records an override learned from a peer (a forward
// NACK carries the refusing node's placement). It only applies when
// the learned epoch is newer than ours — stale news never regresses
// ownership. Reports whether the entry changed.
func (p *Placement) AdoptOverride(k SlotKey, node string, epoch uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.overrides[k]
	if epoch <= cur.epoch {
		return false
	}
	p.overrides[k] = ovEntry{node: node, epoch: epoch}
	p.version++
	return true
}

// SetMembers replaces the member list (dynamic topology reload).
// Liveness state for removed members is pruned; overrides pointing at
// removed members stay recorded but stop influencing ownership (the
// member check in ownerLocked) until the operator re-points them.
func (p *Placement) SetMembers(names []string) {
	s := append([]string(nil), names...)
	sort.Strings(s)
	member := make(map[string]bool, len(s))
	for _, n := range s {
		member[n] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.names = s
	p.member = member
	for n := range p.down {
		if !member[n] {
			delete(p.down, n)
		}
	}
	p.version++
}

// Members returns the current sorted member list.
func (p *Placement) Members() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]string(nil), p.names...)
}

// Overrides snapshots the override map with a version stamp.
func (p *Placement) Overrides() (uint64, []Override) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Override, 0, len(p.overrides))
	for k, o := range p.overrides {
		out = append(out, Override{SlotKey: k, Node: o.node, Epoch: o.epoch})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FP != out[j].FP {
			return out[i].FP < out[j].FP
		}
		return out[i].Slot < out[j].Slot
	})
	return p.version, out
}

// Merge folds a peer's overrides into this view. Conflicts (both
// sides claim the slot for different nodes) resolve deterministically:
// the higher epoch wins outright — it records the more recent
// ownership change, which is what fencing is for. At equal epochs the
// pre-epoch tie rules apply (the entry whose target node is up wins;
// both up, lexically smaller name wins) so every node still converges
// to the same map regardless of gossip order.
func (p *Placement) Merge(ovs []Override) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	changed := 0
	for _, o := range ovs {
		cur, ok := p.overrides[o.SlotKey]
		if !ok {
			p.overrides[o.SlotKey] = ovEntry{node: o.Node, epoch: o.Epoch}
			changed++
			continue
		}
		if cur.node == o.Node {
			if o.Epoch > cur.epoch {
				p.overrides[o.SlotKey] = ovEntry{node: o.Node, epoch: o.Epoch}
				changed++
			}
			continue
		}
		win := cur
		switch {
		case o.Epoch > cur.epoch:
			win = ovEntry{node: o.Node, epoch: o.Epoch}
		case o.Epoch < cur.epoch:
			// keep cur
		default:
			curUp, newUp := !p.down[cur.node], !p.down[o.Node]
			switch {
			case curUp && !newUp:
				// keep cur
			case newUp && !curUp:
				win = ovEntry{node: o.Node, epoch: o.Epoch}
			case o.Node < cur.node:
				win = ovEntry{node: o.Node, epoch: o.Epoch}
			}
		}
		if win != cur {
			p.overrides[o.SlotKey] = win
			changed++
		}
	}
	if changed > 0 {
		p.version++
	}
	return changed
}

// Version returns the monotone local mutation counter (diagnostic
// only — versions are per-node, not a cluster-wide clock).
func (p *Placement) Version() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.version
}
