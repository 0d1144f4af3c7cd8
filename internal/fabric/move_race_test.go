package fabric

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/transport"
)

// A resume that races a drain's move of the same session must find it: on
// the drained shard or on its new home, never on neither — an "unknown
// session" reject sends the client to a cold start with the distilled state
// still alive one shard over. Each round parks a handful of sessions on
// shard 0, then drains it on one goroutine while every session resumes on
// its own; a seed staggers the goroutines so the rounds cover the
// interleavings. Nothing asserted depends on speed: whatever the schedule,
// every resume is served, a session changes shard by exactly one move, and
// no parked state is left behind.
func TestResumeRacesDrain(t *testing.T) {
	const sessions, rounds = 6, 40
	frames := testFrames(t, 1)
	for seed := int64(0); seed < rounds; seed++ {
		r := testRouter(t, 2, sessions)
		clients := make([]*fclient, sessions)
		for k := range clients {
			clients[k] = fconnect(t, r, frames)
			clients[k].hello(idOnShard(0, k, 2))
			clients[k].drop()
		}

		rng := rand.New(rand.NewSource(seed))
		stagger := func() func() {
			n := rng.Intn(40)
			return func() {
				for i := 0; i < n; i++ {
					runtime.Gosched()
				}
			}
		}
		errs := make(chan error, sessions+1)
		var wg sync.WaitGroup
		start := make(chan struct{})
		run := func(wait func(), f func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				wait()
				if err := f(); err != nil {
					errs <- err
				}
			}()
		}
		run(stagger(), func() error {
			_, err := r.Drain(0)
			return err
		})
		for _, c := range clients {
			run(stagger(), func() error { return resumeToCompletion(r, c) })
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("seed %d: %v", seed, err)
		}

		st := r.Stats()
		stayed, changed := st.Shards[0].SessionsServed, st.Shards[1].SessionsServed
		if stayed+changed != sessions {
			t.Errorf("seed %d: %d sessions completed on shard 0 and %d on shard 1, want %d in all", seed, stayed, changed, sessions)
		}
		if st.Migrated+st.Handoffs != changed {
			t.Errorf("seed %d: %d drain moves + %d handoffs for %d sessions that changed shard", seed, st.Migrated, st.Handoffs, changed)
		}
		if st.Agg.Detached != 0 || st.Agg.Evicted != 0 || st.Agg.ResumeFulls != 0 {
			t.Errorf("seed %d: parked state left behind, evicted or resent in full: %+v", seed, st.Agg)
		}
		r.Close()
		if t.Failed() {
			return
		}
	}
}

// resumeToCompletion resumes c's session through the router, backing off
// on a retryable verdict as core.Client does, and shuts it down cleanly.
// Any other refusal — above all "unknown session" — is the failure.
func resumeToCompletion(r *Router, c *fclient) error {
	for attempt := 0; attempt < 100; attempt++ {
		clientConn, serverConn := transport.Pipe(8, nil)
		done := make(chan error, 1)
		go func() {
			defer serverConn.Close()
			done <- r.Handle(serverConn)
		}()
		req := transport.Resume{SessionID: c.sessionID, Epoch: c.epoch}
		if err := clientConn.Send(transport.Message{Type: transport.MsgResume, Body: transport.EncodeResume(req)}); err != nil {
			return err
		}
		m, err := clientConn.Recv()
		if err != nil {
			return fmt.Errorf("session %d: no resume ack: %w", c.sessionID, err)
		}
		ack, err := transport.DecodeResumeAck(m.Body)
		if err != nil {
			return err
		}
		switch ack.Status {
		case transport.ResumeRetry:
			clientConn.Close()
			<-done
			runtime.Gosched()
			continue
		case transport.ResumeReplay, transport.ResumeFull:
			if ack.Status == transport.ResumeFull {
				if _, err := clientConn.Recv(); err != nil {
					return err
				}
			}
			clientConn.Send(transport.Message{Type: transport.MsgShutdown})
			err := <-done
			clientConn.Close()
			return err
		default:
			clientConn.Close()
			<-done
			return fmt.Errorf("session %d: resume answered %v (%s)", c.sessionID, ack.Status, ack.Reason)
		}
	}
	return fmt.Errorf("session %d: still told to retry after 100 attempts", c.sessionID)
}
