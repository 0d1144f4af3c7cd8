package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ErrClosed is returned by Handle after Close.
var ErrClosed = errors.New("fabric: router closed")

// Options configures a Router.
type Options struct {
	// Shards is the number of shard workers (default 2).
	Shards int
	// Shard returns the serve.Options for shard i. Every shard needs its
	// own Teacher instance — each shard serialises calls to its teacher
	// behind its own mutex, so a teacher is not safe to share across
	// shards — while Cfg and Base should come from one
	// template so a session moved between shards keeps training as it was.
	Shard func(i int) serve.Options
	// Telemetry, when non-nil, registers the router's live routing
	// counters (routed/sheds/handoffs/migrations), the placement-set
	// gauge, and shed/drain/migrate trace events. It is also every
	// shard's serve.Options.Telemetry (with ShardIndex = i), whatever the
	// Shard factory set, so one registry carries the whole fabric's
	// per-shard occupancy gauges.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives routing lifecycle lines.
	Logf func(format string, v ...any)
}

// routerTelemetry holds the router-level metric handles (nil no-ops when
// telemetry is off).
type routerTelemetry struct {
	routed   *telemetry.Counter
	sheds    *telemetry.Counter
	handoffs *telemetry.Counter
	migrated *telemetry.Counter
	shards   *telemetry.Gauge
	trace    *telemetry.TraceRing
}

func newRouterTelemetry(reg *telemetry.Registry) routerTelemetry {
	var t routerTelemetry
	if reg == nil {
		return t
	}
	t.routed = reg.Counter("shadowtutor_fabric_routed_total", "Connections handed to a shard.")
	t.sheds = reg.Counter("shadowtutor_fabric_sheds_total", "Fresh sessions shed at the admission watermark.")
	t.handoffs = reg.Counter("shadowtutor_fabric_handoffs_total", "Resumes served by pulling the session from another shard.")
	t.migrated = reg.Counter("shadowtutor_fabric_migrations_total", "Parked sessions moved by shard drains.")
	t.shards = reg.Gauge("shadowtutor_fabric_active_shards", "Shards currently in the placement set.")
	t.trace = reg.Trace()
	return t
}

// ShardStats is one shard's view in a router stats snapshot.
type ShardStats struct {
	Index    int
	Draining bool
	serve.Stats
}

// Stats aggregates router activity: the routing counters only the router
// sees, per-shard snapshots, and their associative fold.
type Stats struct {
	Routed   int64 // connections handed to a shard
	Handoffs int64 // resumes served by pulling the session from another shard
	Sheds    int64 // fresh sessions rejected (retryable) at the watermark
	Migrated int64 // parked sessions moved by shard drains

	Shards []ShardStats
	// Agg is the fold of every shard's stats (serve.Stats.Add).
	Agg serve.Stats
}

// Router fronts N shard workers behind one Handle/ServeListener surface,
// placing sessions by rendezvous hash over their session ID.
type Router struct {
	opts   Options
	shards []*Shard
	tm     routerTelemetry

	mu        sync.Mutex
	active    []bool // placement membership; Drain clears a slot
	closed    bool
	nextID    uint64
	reserved  map[uint64]struct{} // Hello IDs claimed but not yet registered on a shard
	routed    int64
	handoffs  int64
	sheds     int64
	migrated  int64
	listeners []*transport.Listener

	// moveMu makes "find the shard that holds a parked session and move it"
	// one critical section: routeResume's place-lookup-move and each of
	// Drain's moves take it, so a resume racing a drain sees its session on
	// the old shard or the new one, never in between. resuming counts, per
	// session, the resumes that have done their lookup and whose shard is
	// still serving them: Drain leaves those sessions where the resume
	// expects them. A move is a pointer changing stores, so the section is
	// microseconds. Nests outside r.mu.
	moveMu   sync.Mutex
	resuming map[uint64]int

	quit chan struct{}
	once sync.Once
}

// NewRouter builds the shard workers and the routing frontend. Each shard
// is a full serve.Manager (own teacher, own session registry); the
// router never touches a session after handing its connection over.
func NewRouter(opts Options) (*Router, error) {
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	if opts.Shard == nil {
		return nil, errors.New("fabric: Options.Shard factory required")
	}
	r := &Router{
		opts:     opts,
		shards:   make([]*Shard, opts.Shards),
		active:   make([]bool, opts.Shards),
		reserved: map[uint64]struct{}{},
		resuming: map[uint64]int{},
		quit:     make(chan struct{}),
	}
	r.tm = newRouterTelemetry(opts.Telemetry)
	for i := 0; i < opts.Shards; i++ {
		so := opts.Shard(i)
		so.ShardIndex = i
		so.Telemetry = opts.Telemetry
		m, err := serve.NewManager(so)
		if err != nil {
			for j := 0; j < i; j++ {
				r.shards[j].Close()
			}
			return nil, fmt.Errorf("fabric: building shard %d: %w", i, err)
		}
		r.shards[i] = &Shard{Index: i, Manager: m}
		r.active[i] = true
	}
	r.tm.shards.Set(float64(opts.Shards))
	return r, nil
}

// place returns the rendezvous winner for id among the shards still in the
// placement set, or nil when the router is closed.
func (r *Router) place(id uint64) *Shard {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	idxs := make([]int, 0, len(r.shards))
	for i, on := range r.active {
		if on {
			idxs = append(idxs, i)
		}
	}
	r.mu.Unlock()
	if len(idxs) == 0 {
		return nil
	}
	return r.shards[idxs[Place(id, idxs)]]
}

// Handle serves one client connection, blocking until the session ends: it
// reads the opening frame, places the session on a shard, and delegates.
func (r *Router) Handle(conn transport.Conn) error {
	first, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("fabric: reading opening frame: %w", err)
	}
	switch first.Type {
	case transport.MsgResume:
		req, err := transport.DecodeResume(first.Body)
		if err != nil {
			// Malformed: fail only this connection — no trustworthy session
			// to address an ack to, same contract as the shard's own path.
			return fmt.Errorf("fabric: malformed resume: %w", err)
		}
		return r.routeResume(conn, first, req)
	case transport.MsgHello:
		hello, err := transport.DecodeHello(first.Body)
		if err != nil {
			return fmt.Errorf("fabric: malformed hello: %w", err)
		}
		return r.routeHello(conn, first, hello)
	default:
		return fmt.Errorf("fabric: expected Hello or Resume, got %v", first.Type)
	}
}

// routeHello places a fresh session. The router owns ID assignment across
// the fabric: a zero (server-assigns) or already-taken requested ID is
// replaced with a globally fresh one before hashing, and the chosen ID is
// reserved until the shard has run the session — so an ID names at most
// one session fabric-wide, its home shard is always the hash winner, and
// the shard-local fallback mint (which probes only its own shard) is never
// exercised through the router.
func (r *Router) routeHello(conn transport.Conn, first transport.Message, hello transport.Hello) error {
	id, release := r.claim(hello.SessionID)
	defer release()
	if id != hello.SessionID {
		hello.SessionID = id
		first.Body = transport.EncodeHello(hello)
	}
	sh := r.place(id)
	if sh == nil {
		return ErrClosed
	}
	// A fresh Hello bound for a shard at its MaxSessions is shed with a
	// retryable reject. Resumes are never shed: the shard already holds
	// their state.
	if active, capacity := sh.Load(); capacity > 0 && active >= capacity {
		r.count(&r.sheds)
		r.tm.sheds.Inc()
		r.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvShed, Session: id, Shard: sh.Index, Detail: "watermark"})
		r.logf("shed hello for session %d: shard %d at watermark (%d active)", id, sh.Index, active)
		return r.sendRetry(conn, fmt.Sprintf("shard %d at capacity", sh.Index))
	}
	r.count(&r.routed)
	r.tm.routed.Inc()
	return sh.HandleFirst(conn, first)
}

// routeResume places a reconnect. When the hash winner does not hold the
// session but another shard has it parked — the placement changed (drain)
// or the session was fallback-placed — the router performs the cross-shard
// handoff: it moves the session here (serve.Manager.MoveParked), then lets
// the target shard run the ordinary epoch-checked resume. Every race (taken,
// evicted, still attached) degrades to the shard's own protocol verdict.
// Placing, finding the owner and moving are one moveMu section, and the
// session stays counted in r.resuming until the shard has finished serving
// this connection, so a concurrent Drain neither shows the lookup a session
// that is on no shard nor moves it out from under the shard's re-attach.
func (r *Router) routeResume(conn transport.Conn, first transport.Message, req transport.Resume) error {
	id := req.SessionID
	r.moveMu.Lock()
	sh := r.place(id)
	if sh == nil {
		r.moveMu.Unlock()
		return ErrClosed
	}
	var moved bool
	var attachedOn *Shard
	if owner := r.owner(id); owner != nil && owner != sh && sh.SessionState(id) == serve.SessionNone {
		switch owner.SessionState(id) {
		case serve.SessionParked:
			// A failed move (taken or evicted since it was seen, target
			// closing) leaves the session where it was; this resume then
			// gets the target shard's own verdict.
			moved = owner.MoveParked(id, sh.Manager) == nil
		case serve.SessionActive:
			attachedOn = owner
		}
	}
	if attachedOn == nil {
		r.resuming[id]++
	}
	r.moveMu.Unlock()
	if attachedOn != nil {
		// Same transient verdict a shard gives its own still-attached
		// sessions: back off and retry.
		return r.sendRetry(conn, fmt.Sprintf("session %d still attached on shard %d", id, attachedOn.Index))
	}
	defer func() {
		r.moveMu.Lock()
		if r.resuming[id]--; r.resuming[id] == 0 {
			delete(r.resuming, id)
		}
		r.moveMu.Unlock()
	}()
	if moved {
		r.count(&r.handoffs)
		r.tm.handoffs.Inc()
	}
	r.count(&r.routed)
	r.tm.routed.Inc()
	return sh.HandleFirst(conn, first)
}

// owner returns the shard that currently knows the session (active or
// parked), drained shards included — parked state survives a drain until a
// resume pulls it. Nil when no shard knows the ID.
func (r *Router) owner(id uint64) *Shard {
	for _, sh := range r.shards {
		if sh.SessionState(id) != serve.SessionNone {
			return sh
		}
	}
	return nil
}

// claim returns the ID this Hello will run under — the requested ID when
// nothing in the fabric has taken it, a freshly allocated one otherwise —
// and reserves it until release. The reservation closes the race between
// two concurrent Hellos naming the same free ID: without it both would
// pass the taken-check, land on the same shard, and the loser would be
// fallback-minted an ID that is only checked for uniqueness shard-locally.
// Shard locks nest inside r.mu (shards never call back into the router),
// so probing them from here is deadlock-free.
func (r *Router) claim(requested uint64) (id uint64, release func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id = requested
	if id == 0 || r.takenLocked(id) {
		for {
			r.nextID++
			if !r.takenLocked(r.nextID) {
				id = r.nextID
				break
			}
		}
	}
	r.reserved[id] = struct{}{}
	return id, func() {
		r.mu.Lock()
		delete(r.reserved, id)
		r.mu.Unlock()
	}
}

// takenLocked reports whether an ID is reserved by an in-flight Hello or
// known (active or parked) to any shard. Caller holds r.mu.
func (r *Router) takenLocked(id uint64) bool {
	if _, ok := r.reserved[id]; ok {
		return true
	}
	return r.owner(id) != nil
}

// sendRetry answers an admission shed (or cross-shard still-attached race)
// with the protocol-v3 retryable reject, then fails the connection.
func (r *Router) sendRetry(conn transport.Conn, reason string) error {
	body, err := transport.EncodeResumeAck(transport.ResumeAck{
		Status: transport.ResumeRetry,
		Reason: reason,
	})
	if err == nil {
		err = conn.Send(transport.Message{Type: transport.MsgResumeAck, Body: body})
	}
	if err != nil {
		return fmt.Errorf("fabric: shedding connection: %w", err)
	}
	return fmt.Errorf("fabric: connection shed: %s", reason)
}

// Drain removes shard i from the placement set and moves its parked
// sessions to their new rendezvous homes (instead of evicting them, which
// would cost every such client a full cold start). Active sessions — and
// parked ones a resume is re-attaching right now — are untouched: they
// finish on their live connections, and if they later detach on the drained
// shard, the lazy handoff in routeResume still recovers them. At least one
// shard must remain in the set.
func (r *Router) Drain(i int) (migrated int, err error) {
	r.mu.Lock()
	if i < 0 || i >= len(r.shards) {
		r.mu.Unlock()
		return 0, fmt.Errorf("fabric: no shard %d", i)
	}
	if !r.active[i] {
		r.mu.Unlock()
		return 0, nil
	}
	remaining := 0
	for j, on := range r.active {
		if on && j != i {
			remaining++
		}
	}
	if remaining == 0 {
		r.mu.Unlock()
		return 0, errors.New("fabric: cannot drain the last shard")
	}
	r.active[i] = false
	r.mu.Unlock()
	r.tm.shards.Set(float64(remaining))
	r.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvDrain, Shard: i})

	sh := r.shards[i]
	for _, id := range sh.ParkedIDs() {
		target := r.place(id)
		if target == nil {
			break // closed mid-drain: the drained shard's Close evicts the rest
		}
		r.moveMu.Lock()
		moved := r.resuming[id] == 0 && sh.MoveParked(id, target.Manager) == nil
		r.moveMu.Unlock()
		if !moved {
			// Taken or evicted since the listing, or a resume is about to
			// re-attach it here: nothing to move.
			continue
		}
		migrated++
		r.tm.migrated.Inc()
		r.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvMigrate, Session: id, Shard: target.Index})
	}
	r.mu.Lock()
	r.migrated += int64(migrated)
	r.mu.Unlock()
	r.logf("shard %d drained: %d parked sessions migrated", i, migrated)
	return migrated, nil
}

// ServeListener accepts connections from ln until the router is closed or
// the listener fails, spawning one routed session handler per client.
func (r *Router) ServeListener(ln *transport.Listener) error {
	r.mu.Lock()
	r.listeners = append(r.listeners, ln)
	r.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-r.quit:
				return nil
			default:
				return err
			}
		}
		go func() {
			defer conn.Close()
			// Handle logs routing failures; shard session errors surface
			// through shard logs exactly as under a lone serve.Manager.
			r.Handle(conn)
		}()
	}
}

// Stats snapshots the fabric: routing counters, per-shard stats, and their
// fold. The fold uses serve.Stats.Add, which sums raw numerators and
// denominators, so the aggregate mean helpers are exact regardless of how
// sessions were spread (or how many shards have served nothing).
func (r *Router) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		Routed:   r.routed,
		Handoffs: r.handoffs,
		Sheds:    r.sheds,
		Migrated: r.migrated,
	}
	draining := make([]bool, len(r.shards))
	for i, on := range r.active {
		draining[i] = !on
	}
	r.mu.Unlock()
	for i, sh := range r.shards {
		ss := sh.Stats()
		st.Shards = append(st.Shards, ShardStats{Index: i, Draining: draining[i], Stats: ss})
		st.Agg = st.Agg.Add(ss)
	}
	return st
}

func (r *Router) count(c *int64) {
	r.mu.Lock()
	*c++
	r.mu.Unlock()
}

// Close stops routing, closes any listeners, and shuts every shard down
// concurrently (each shard drains its own sessions under its
// DrainTimeout). Idempotent.
func (r *Router) Close() error {
	r.once.Do(func() {
		close(r.quit)
		r.mu.Lock()
		r.closed = true
		lns := r.listeners
		r.listeners = nil
		r.mu.Unlock()
		for _, ln := range lns {
			ln.Close()
		}
		var wg sync.WaitGroup
		for _, sh := range r.shards {
			wg.Add(1)
			go func(sh *Shard) {
				defer wg.Done()
				sh.Close()
			}(sh)
		}
		wg.Wait()
	})
	return nil
}

func (r *Router) logf(format string, v ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, v...)
	}
}
