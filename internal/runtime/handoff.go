package runtime

import (
	"errors"
	"fmt"

	"cepshed/internal/checkpoint"
	"cepshed/internal/event"
)

// Shard migration: the runtime-side half of the cluster layer's
// handoff protocol (internal/cluster, docs/CLUSTER.md). A shard's state
// became fully serializable in the durability work; these hooks freeze
// one shard, hand its state out, and install a shipped state into the
// matching (empty) shard of another runtime. All five operations —
// these four and the registry's Barrier — travel the shard's own input
// queue as control messages, so they are ordered behind every queued
// event: ExportShard observes a drained shard by construction, with no
// cross-goroutine locking of the engine.
//
// Planned handoff:  ExportShard → ship → ImportShard (target) →
// RetireShard; a failed ship calls ResumeShard to unfreeze.
// Failover: the survivor loads the dead node's shard files directly
// and calls ImportShard with the snapshot plus the log tail. An import
// restores the way boot recovery does (restore, shard.go).

// ctlOp selects a shard control operation.
type ctlOp int

const (
	ctlExport ctlOp = iota
	ctlImport
	ctlResume
	ctlRetire
	ctlBarrier
)

// shardCtl is a control message on the shard queue; reply must be
// buffered (the worker never blocks on it).
type shardCtl struct {
	op    ctlOp
	h     *checkpoint.Handoff // ctlImport only
	seq   uint64              // ctlBarrier: the floor to claim, when has
	has   bool
	reply chan ctlReply
}

type ctlReply struct {
	state  *checkpoint.ShardState // ctlExport
	maxSeq uint64                 // ctlImport: restored seq high-water mark
	hasSeq bool
	err    error
}

// handleCtl dispatches one control message on the worker goroutine. A
// panic inside an operation (a poison event in an imported WAL tail)
// still answers the caller — with the panic as an error — before
// re-panicking into the supervisor, which quarantines and rebuilds the
// shard exactly as for a live poison event.
func (s *shard) handleCtl(c *shardCtl) {
	defer func() {
		if p := recover(); p != nil {
			select {
			case c.reply <- ctlReply{err: fmt.Errorf("shard %d: control op panic: %v", s.id, p)}:
			default:
			}
			panic(p)
		}
	}()
	switch c.op {
	case ctlExport:
		c.reply <- s.ctlExport()
	case ctlImport:
		c.reply <- s.ctlImport(c.h)
	case ctlResume:
		s.exported = false
		s.exportedFlag.Store(false)
		c.reply <- ctlReply{}
	case ctlRetire:
		c.reply <- s.ctlRetire()
	case ctlBarrier:
		c.reply <- s.ctlBarrier(c.seq, c.has)
	default:
		c.reply <- ctlReply{err: fmt.Errorf("shard %d: unknown control op %d", s.id, c.op)}
	}
}

// ctlExport freezes the shard and returns its full serialized state.
// The control message arrived behind every queued event, so the engine
// is quiescent; the WAL flush below releases any held-back matches
// (they were accepted and detected HERE — they are this node's to
// deliver), and the returned state reflects exactly what was delivered.
func (s *shard) ctlExport() ctlReply {
	if s.exported {
		return ctlReply{err: fmt.Errorf("shard %d: already exported", s.id)}
	}
	// An in-flight async snapshot pins the engine's live matches and holds
	// deliveries pending its floor publication; settle it so the exported
	// state is the settled truth, not a frame mid-commit.
	s.settleSnapshot(true)
	if s.ckpt != nil {
		if err := s.ckpt.Flush(); err != nil {
			s.walFailed("export flush", err)
		} else {
			s.releasePend()
		}
	}
	s.exported = true
	s.exportedFlag.Store(true)
	st := s.buildStateShell()
	st.Engine = s.en.Snapshot()
	return ctlReply{state: st}
}

// ctlImport installs a shipped shard state into this (empty) shard and
// replays the accompanying log tail through restore, floored above this
// node's own log, which may hold the slot's records from an earlier
// ownership. The commit snapshot is what makes a mid-import crash safe:
// nothing is queued and no local file advances before it, so a crash or
// a failed commit leaves the shard as empty as before and the caller
// can retry.
func (s *shard) ctlImport(h *checkpoint.Handoff) ctlReply {
	if s.exported {
		return ctlReply{err: fmt.Errorf("shard %d: exported; resume before import", s.id)}
	}
	if st := s.en.Stats(); st.Events != 0 || s.en.LiveCount() != 0 || s.hasSeq {
		return ctlReply{err: fmt.Errorf("shard %d: not empty (events=%d live=%d hasSeq=%v); import requires a cold shard",
			s.id, st.Events, s.en.LiveCount(), s.hasSeq)}
	}
	// A capture of the empty shard may still be in flight (coverIdle).
	s.settleSnapshot(true)
	if err := s.restore(h.State, h.Tail, h.Tail, restoreImport, -1, true); err != nil {
		return ctlReply{err: fmt.Errorf("import: %w", err)}
	}
	return ctlReply{maxSeq: s.lastSeq, hasSeq: s.hasSeq}
}

// ctlRetire closes and tombstones the exported shard's files: the
// importing node acknowledged a durable import, so replayable state
// here would only ever duplicate emissions. The shard keeps running
// (quarantining strays) — the goroutine is owned by Close.
func (s *shard) ctlRetire() ctlReply {
	if !s.exported {
		return ctlReply{err: fmt.Errorf("shard %d: not exported", s.id)}
	}
	s.settleSnapshot(true)
	if s.ckpt != nil {
		if err := s.ckpt.Retire(); err != nil {
			if s.cfg.Logf != nil {
				s.cfg.Logf("runtime: shard %d: retire failed: %v", s.id, err)
			}
			s.ckpt.Abort()
		}
		s.ckpt = nil
	}
	return ctlReply{}
}

// ctlBarrier snapshots the shard behind everything pushed to it, with
// its floor raised to seq: the registry's activation barrier, after
// which the shard's replay starts above seq. A failed snapshot is the
// reply's error.
func (s *shard) ctlBarrier(seq uint64, has bool) ctlReply {
	if has && (!s.hasSeq || seq > s.lastSeq) {
		s.lastSeq, s.hasSeq = seq, true
	}
	s.settleSnapshot(true)
	if s.ckpt != nil && !s.exported { // an exported slot's state is another node's now
		if err := s.ckpt.Flush(); err != nil {
			s.walFailed("barrier flush", err)
			return ctlReply{err: err}
		}
		s.releasePend()
		if err := s.saveSnapshot(); err != nil {
			return ctlReply{err: err}
		}
	}
	return ctlReply{}
}

// Barrier snapshots every shard behind the events pushed to it with
// its replay floor raised to seq (has=false: no floor to claim). A
// registry raises the barrier when a query joins the fan-out after a
// gap — added or resumed — so that no recovery replays the events it
// was not offered. A shard that fails its snapshot does not keep the
// others from theirs; the failures come back joined.
func (r *Runtime) Barrier(seq uint64, has bool) error {
	var errs []error
	for i := range r.shards {
		if _, err := r.sendCtl(i, &shardCtl{op: ctlBarrier, seq: seq, has: has, reply: make(chan ctlReply, 1)}); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// sendCtl pushes one control message onto shard i's queue, behind every
// batch pushed before it, and waits for the worker's answer; it never
// waits for room. If Close races in after the push, the worker still
// drains the queued message before exiting, so the reply always
// arrives. Control messages count toward depth so an otherwise-idle
// shard still reads as needing service; the ctl branches decrement on
// consume.
func (r *Runtime) sendCtl(i int, c *shardCtl) (ctlReply, error) {
	if i < 0 || i >= len(r.shards) {
		return ctlReply{}, fmt.Errorf("runtime: shard %d out of range [0,%d)", i, len(r.shards))
	}
	if ok, _ := r.shards[i].push(batch{ctl: c}, 1); !ok {
		return ctlReply{}, fmt.Errorf("runtime: closed")
	}
	rep := <-c.reply
	return rep, rep.err
}

// ExportShard freezes shard i — behind everything already queued to it
// — and returns its complete serialized state. Until ResumeShard or
// RetireShard, events reaching the shard are quarantined, not
// processed.
func (r *Runtime) ExportShard(i int) (*checkpoint.ShardState, error) {
	rep, err := r.sendCtl(i, &shardCtl{op: ctlExport, reply: make(chan ctlReply, 1)})
	if err != nil {
		return nil, err
	}
	return rep.state, nil
}

// ResumeShard unfreezes an exported shard (an aborted handoff): the
// local state never left, so processing simply continues.
func (r *Runtime) ResumeShard(i int) error {
	_, err := r.sendCtl(i, &shardCtl{op: ctlResume, reply: make(chan ctlReply, 1)})
	return err
}

// RetireShard tombstones an exported shard's durable files after the
// new owner confirmed a durable import.
func (r *Runtime) RetireShard(i int) error {
	_, err := r.sendCtl(i, &shardCtl{op: ctlRetire, reply: make(chan ctlReply, 1)})
	return err
}

// ImportShard installs a handoff into the shard slot it names, which
// must be empty (a slot this node never owned, or one swept cold).
// Returns the restored seq high-water mark; the caller must bump its
// event numbering above it before routing new events to the slot, or
// the per-instance floor would drop them as replays.
func (r *Runtime) ImportShard(h *checkpoint.Handoff) (maxSeq uint64, hasSeq bool, err error) {
	if h == nil {
		return 0, false, fmt.Errorf("runtime: nil handoff")
	}
	rep, err := r.sendCtl(h.Shard, &shardCtl{op: ctlImport, h: h, reply: make(chan ctlReply, 1)})
	if err != nil {
		return 0, false, err
	}
	return rep.maxSeq, rep.hasSeq, nil
}

// ShardIndexFor exposes the partitioning decision — which shard slot an
// event belongs to — without offering the event. It is a pure function
// of the event (see keyByAttr). The cluster router uses it to decide
// which NODE owns the event: slot ownership is the unit of placement.
func (r *Runtime) ShardIndexFor(e *event.Event) int {
	if len(r.shards) <= 1 {
		return 0
	}
	return int(r.key(e) % uint64(len(r.shards)))
}
