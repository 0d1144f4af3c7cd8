// Package fabric scales the serving tier horizontally: a Router frontend
// places sessions onto N shard workers — each an independent serve.Manager
// with its own teacher batcher, session registry and statistics — via
// rendezvous (highest-random-weight) hashing over the session ID. One
// process, one listener, N single-lock domains: the PR 1 session manager
// becomes a partitioned, message-routed tier in the spirit of event-driven
// multimedia runtimes, while each shard keeps the PR 2 zero-allocation hot
// path untouched.
//
// The router is deliberately thin. It reads exactly one message per
// connection — the opening Hello or Resume — picks the shard, and hands
// both over; every protocol decision (epoch checks, replay vs full
// checkpoint, rejects) stays in the shard's serve.Manager. Three concerns
// live at the router because only it sees all shards:
//
//   - Admission control: a fresh Hello aimed at a shard at its capacity
//     watermark is shed with the protocol-v3 retryable reject
//     (transport.ResumeRetry), so overload turns into client backoff
//     instead of unbounded queueing.
//   - Cross-shard handoff: a Resume that hashes to a shard that does not
//     hold the parked session (the placement changed, or the session was
//     fallback-placed) moves the session — the object itself, with its
//     student, journal, optimizer and link-policy state — from the shard
//     that does onto the target (serve.Manager.MoveParked).
//   - Drain: removing a shard from the placement set moves its parked
//     sessions to their new homes instead of evicting them; active
//     sessions finish where they are. A move mutex makes find-and-move one
//     critical section, so a resume racing a drain never finds its
//     session on neither shard.
package fabric
