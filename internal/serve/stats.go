package serve

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/teacher"
	"repro/internal/telemetry"
)

// managerTelemetry holds the metric handles one manager records into.
// Every handle is nil (a no-op) when telemetry is disabled, so record
// sites are unconditional.
type managerTelemetry struct {
	shard          int
	active         *telemetry.Gauge
	detached       *telemetry.Gauge
	started        *telemetry.Counter
	completed      *telemetry.Counter
	resumeReplays  *telemetry.Counter
	resumeFulls    *telemetry.Counter
	evicted        *telemetry.Counter
	keyFrames      *telemetry.Counter
	distillSteps   *telemetry.Counter
	distill        *telemetry.Histogram
	policySwitches *telemetry.Counter
	trace          *telemetry.TraceRing
}

func newManagerTelemetry(reg *telemetry.Registry, shard int) managerTelemetry {
	t := managerTelemetry{shard: shard}
	if reg == nil {
		return t
	}
	l := telemetry.L("shard", strconv.Itoa(shard))
	t.active = reg.Gauge("shadowtutor_sessions_active", "Live sessions attached to this shard.", l)
	t.detached = reg.Gauge("shadowtutor_sessions_detached", "Sessions parked for resumption on this shard.", l)
	t.started = reg.Counter("shadowtutor_sessions_started_total", "Fresh sessions admitted.", l)
	t.completed = reg.Counter("shadowtutor_sessions_completed_total", "Sessions completed (incl. evicted parked ones).", l)
	t.resumeReplays = reg.Counter("shadowtutor_session_resumes_total", "Sessions re-attached after a drop.", l, telemetry.L("mode", "replay"))
	t.resumeFulls = reg.Counter("shadowtutor_session_resumes_total", "Sessions re-attached after a drop.", l, telemetry.L("mode", "full"))
	t.evicted = reg.Counter("shadowtutor_session_evictions_total", "Parked sessions dropped by TTL/capacity/shutdown.", l)
	t.keyFrames = reg.Counter("shadowtutor_key_frames_total", "Key frames distilled.", l)
	t.distillSteps = reg.Counter("shadowtutor_distill_steps_total", "Optimisation steps taken.", l)
	t.distill = reg.Histogram("shadowtutor_distill_step_seconds", "Wall time per distillation step.", telemetry.DurationBuckets, l)
	t.policySwitches = reg.Counter("shadowtutor_policy_switches_total", "Adaptive link-policy hysteresis transitions.", l)
	t.trace = reg.Trace()
	return t
}

// Stats aggregates manager activity.
type Stats struct {
	SessionsServed int64         // sessions completed (incl. evicted detached ones)
	Active         int           // sessions currently running
	KeyFrames      int64         // key frames distilled across completed sessions
	DistillSteps   int64         // optimisation steps across completed sessions
	DistillTime    time.Duration // wall time spent in those steps
	Teacher        teacher.BatchStats

	// Resilience counters.
	Detached      int   // sessions currently parked for resumption
	ResumeReplays int64 // resumes served from the diff journal
	ResumeFulls   int64 // resumes that fell back to a full checkpoint
	Evicted       int64 // parked sessions dropped by TTL/capacity/shutdown

	// Byte accounting for model state crossing the wire. Each
	// *Bytes counter records what was actually sent; its *Baseline twin
	// records what the legacy raw encoding would have cost, so
	// baseline/actual is the wire shrink factor (1x on the legacy paths).
	CheckpointBytes    int64 // MsgStudentFull bodies sent at handshake
	CheckpointBaseline int64
	FullResendBytes    int64 // MsgStudentFull bodies sent by resume-full fallback
	FullResendBaseline int64
}

// MeanDistillSteps is the mean number of optimisation steps per key frame
// across completed sessions. A manager that has completed no sessions (or
// only sessions whose every key frame skipped optimisation) reports 0
// rather than dividing by zero — shards start empty, and a router folding
// shard stats must be able to call this on any partial aggregate.
func (s Stats) MeanDistillSteps() float64 {
	if s.KeyFrames == 0 {
		return 0
	}
	return float64(s.DistillSteps) / float64(s.KeyFrames)
}

// MeanStepLatency is the mean wall time of one distillation step across
// completed sessions (0 when no steps have been taken — see
// MeanDistillSteps on the zero-session guard).
func (s Stats) MeanStepLatency() time.Duration {
	if s.DistillSteps == 0 {
		return 0
	}
	return s.DistillTime / time.Duration(s.DistillSteps)
}

// Add folds another manager's stats into s and returns the sum — the
// associative merge a router (internal/fabric) uses to aggregate shard
// workers. Every field is a raw sum (gauges like Active and Detached sum
// across disjoint shards; the teacher block merges via
// teacher.BatchStats.Add), so fold order cannot change the result and the
// mean helpers — which re-derive from summed numerators and denominators —
// never average averages or divide by a shard-local zero.
func (s Stats) Add(o Stats) Stats {
	s.SessionsServed += o.SessionsServed
	s.Active += o.Active
	s.KeyFrames += o.KeyFrames
	s.DistillSteps += o.DistillSteps
	s.DistillTime += o.DistillTime
	s.Teacher = s.Teacher.Add(o.Teacher)
	s.Detached += o.Detached
	s.ResumeReplays += o.ResumeReplays
	s.ResumeFulls += o.ResumeFulls
	s.Evicted += o.Evicted
	s.CheckpointBytes += o.CheckpointBytes
	s.CheckpointBaseline += o.CheckpointBaseline
	s.FullResendBytes += o.FullResendBytes
	s.FullResendBaseline += o.FullResendBaseline
	return s
}

func (m *Manager) countResume(replay bool) {
	m.mu.Lock()
	if replay {
		m.agg.ResumeReplays++
		m.tm.resumeReplays.Inc()
	} else {
		m.agg.ResumeFulls++
		m.tm.resumeFulls.Inc()
	}
	m.mu.Unlock()
}

func (m *Manager) countFullResend(actual, baseline int) {
	m.mu.Lock()
	m.agg.FullResendBytes += int64(actual)
	m.agg.FullResendBaseline += int64(baseline)
	m.mu.Unlock()
}

// foldStatsLocked folds a finished session's distillation counters into the
// aggregate. Caller holds m.mu.
func (m *Manager) foldStatsLocked(srv *core.Server) {
	m.agg.SessionsServed++
	m.tm.completed.Inc()
	m.agg.KeyFrames += int64(srv.Distiller.TotalTrains)
	m.agg.DistillSteps += int64(srv.Distiller.TotalSteps)
	m.agg.DistillTime += srv.Distiller.TotalStepTime
}

// Stats snapshots aggregate activity.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.agg
	st.Active = len(m.active)
	st.Teacher = m.batcher.Stats()
	st.Detached = len(m.parked)
	return st
}
