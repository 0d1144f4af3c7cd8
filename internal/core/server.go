package core

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/transport"
	"repro/internal/video"
)

// ErrConnLost reports that a session's connection dropped mid-protocol
// (EOF, a reset, a failed send) as opposed to ending with a Shutdown
// message or a protocol violation. A session manager (internal/serve)
// detaches the session state for later resumption when Loop returns it;
// protocol violations never detach — a hostile client must not pin server
// memory.
var ErrConnLost = errors.New("core: connection lost")

// connLost wraps a transport-level failure so callers can both read the
// operation that failed and detect the class with errors.Is(ErrConnLost).
func connLost(op string, err error) error {
	return fmt.Errorf("core: %s: %w: %w", op, ErrConnLost, err)
}

// Server implements Algorithm 3. Step and Commit are one key frame's work
// with no I/O; Handshake ships the initial student over a transport.Conn
// and Loop runs Step and Commit on the key frames that arrive there.
type Server struct {
	Cfg       Config
	Teacher   teacher.Teacher
	Distiller *Distiller
	// Observer, when non-nil, is the session manager's view of this server:
	// it names the session at handshake and watches checkpoints, distillation
	// results and encoded diffs (internal/serve's session implements it). Nil observes nothing and echoes the client's Hello.
	Observer SessionObserver
	// Checkpoint, when non-nil, encodes MsgStudentFull bodies relative to the
	// shared pretrained base for clients whose Hello or Resume carries its
	// hash. Others (and a nil Checkpoint) get an absolute body.
	Checkpoint *CheckpointCodec
	// DiffCodec names the codec (transport.DiffCodec) every student diff is
	// encoded under; empty means raw.
	DiffCodec string

	// DiffSeq is the sequence number of the last student diff produced
	// (diffs are numbered 1, 2, …). It survives a detach/resume cycle with
	// the rest of the server state.
	DiffSeq uint64
	// LastKFSeq is the highest key-frame sequence received; Step rejects a
	// non-increasing sequence as a confused resume.
	LastKFSeq uint64
	// View is the student's nn.TrainableSubset as the client holds it once
	// it has applied everything sent so far, decoded from every checkpoint
	// and journaled diff the server sent. Every diff is relative to it, so a
	// lossy codec's error on one diff rides in the next instead of
	// compounding on the client. Detachable state, like DiffSeq.
	View *nn.ParamSet
}

// SessionObserver is what a session manager hangs on one Server. Every
// method runs on the goroutine driving Handshake/Loop.
type SessionObserver interface {
	// Assign is consulted during Handshake with the client's Hello and
	// returns the session ID and epoch to acknowledge — a manager registers
	// the session here.
	Assign(transport.Hello) (id, epoch uint64, err error)
	// Checkpoint observes every MsgStudentFull sent during a handshake: the
	// actual body size and the raw nn.WriteNamed baseline it replaced.
	Checkpoint(actual, baseline int)
	// Train observes each key frame's distillation result just after it
	// completes, outside the alloc-budgeted Distiller.Train itself; it must
	// not retain the TrainResult.
	Train(TrainResult)
	// Diff observes every encoded diff just before it is sent — the resume
	// journal. Loop passes each freshly encoded buffer and never reuses it.
	Diff(seq uint64, body []byte)
}

// nopObserver observes nothing and acknowledges the client's own session
// ID and epoch; it is what a Server with a nil Observer runs.
type nopObserver struct{}

func (nopObserver) Assign(h transport.Hello) (uint64, uint64, error) {
	return h.SessionID, h.Epoch, nil
}
func (nopObserver) Checkpoint(actual, baseline int) {}
func (nopObserver) Train(TrainResult)               {}
func (nopObserver) Diff(seq uint64, body []byte)    {}

func (s *Server) observer() SessionObserver {
	if s.Observer != nil {
		return s.Observer
	}
	return nopObserver{}
}

// NewServer builds a server around a student copy and a teacher.
func NewServer(cfg Config, student *nn.Student, tch teacher.Teacher) *Server {
	return &Server{Cfg: cfg, Teacher: tch, Distiller: NewDistiller(cfg, student)}
}

// Serve runs the protocol until the client shuts down or the connection
// drops. It returns nil on clean shutdown; a vanished client also reports
// as clean — the single-connection contract predating session resumption.
// Managers that park sessions for resumption call Handshake/Loop directly
// and inspect ErrConnLost.
func (s *Server) Serve(conn transport.Conn) error {
	if _, err := s.Handshake(conn); err != nil {
		return err
	}
	err := s.Loop(conn)
	if errors.Is(err, ErrConnLost) {
		return nil
	}
	return err
}

// Handshake runs the session-establishment half of Algorithm 3: it receives
// and validates the client's Hello, acknowledges it with a server Hello
// carrying the (possibly manager-assigned) session ID, then ships the full
// student checkpoint (line 1: ToClient(student) — so the client needs no
// pre-installed weights, §4.1.3). The returned Hello carries the assigned
// SessionID.
func (s *Server) Handshake(conn transport.Conn) (transport.Hello, error) {
	m, err := conn.Recv()
	if err != nil {
		return transport.Hello{}, fmt.Errorf("core: server handshake recv: %w", err)
	}
	return s.HandshakeWith(conn, m)
}

// HandshakeWith is Handshake over an already-received first message — a
// session manager that peeks at the first frame to route between fresh
// Hello and Resume handshakes hands the Hello here.
func (s *Server) HandshakeWith(conn transport.Conn, m transport.Message) (transport.Hello, error) {
	if m.Type != transport.MsgHello {
		return transport.Hello{}, fmt.Errorf("core: expected Hello, got %v", m.Type)
	}
	hello, err := transport.DecodeHello(m.Body)
	if err != nil {
		return transport.Hello{}, err
	}
	if hello.Version != transport.Version {
		return transport.Hello{}, fmt.Errorf("core: protocol version mismatch: client %d, server %d", hello.Version, transport.Version)
	}
	if hello.SessionID, hello.Epoch, err = s.observer().Assign(hello); err != nil {
		return transport.Hello{}, err
	}

	ack := transport.Hello{
		Version:   transport.Version,
		NumClass:  uint16(s.Distiller.Student.Config.NumClasses),
		Partial:   s.Cfg.Partial,
		SessionID: hello.SessionID,
		Epoch:     hello.Epoch,
	}
	if s.Checkpoint.Match(hello.BaseHash) {
		ack.BaseHash = hello.BaseHash // the checkpoint that follows is base-relative
	}
	if err := conn.Send(transport.Message{Type: transport.MsgHello, Body: transport.EncodeHello(ack)}); err != nil {
		return transport.Hello{}, fmt.Errorf("core: sending hello ack: %w", err)
	}
	actual, baseline, err := s.SendCheckpoint(conn, hello.BaseHash)
	if err != nil {
		return transport.Hello{}, err
	}
	s.observer().Checkpoint(actual, baseline)
	return hello, nil
}

// SendCheckpoint sends the student as one MsgStudentFull body for a peer
// that sent baseHash (checkpointBody). It returns the body's size and the
// raw nn.WriteNamed size; a failed send wraps ErrConnLost.
func (s *Server) SendCheckpoint(conn transport.Conn, baseHash uint64) (actual, baseline int, err error) {
	body, err := s.checkpointBody(baseHash)
	if err != nil {
		return 0, 0, err
	}
	if err := conn.Send(transport.Message{Type: transport.MsgStudentFull, Body: body}); err != nil {
		return 0, 0, connLost("sending student checkpoint", err)
	}
	return len(body), nn.EncodedSize(s.Distiller.Student.Params.All()), nil
}

// checkpointBody encodes the student as one MsgStudentFull body for a peer
// that sent baseHash (CheckpointCodec.EncodeFor) and makes what the peer
// decodes from it the View.
func (s *Server) checkpointBody(baseHash uint64) ([]byte, error) {
	body, err := s.Checkpoint.EncodeFor(baseHash, s.Distiller.Student.Params.All())
	if err != nil {
		return nil, err
	}
	var base *nn.ParamSet
	if s.Checkpoint != nil {
		base = s.Checkpoint.Base
	}
	held, err := DecodeCheckpointBody(body, base)
	if err != nil {
		return nil, fmt.Errorf("core: decoding own checkpoint: %w", err)
	}
	s.setView(held)
	return body, nil
}

// Loop runs the steady-state half of Algorithm 3 (lines 2–7): receive a key
// frame, Step it, journal and send the reply, Commit it — until shutdown or
// connection loss. Handshake must have completed first.
//
// A connection-level failure (EOF, reset, failed send) returns an error
// wrapping ErrConnLost: the session state is intact and resumable.
// Protocol violations (bad decode, a key frame Step refuses) return plain
// errors — they terminate the session for good.
func (s *Server) Loop(conn transport.Conn) error {
	for {
		m, err := conn.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return ErrConnLost
			}
			return connLost("server recv", err)
		}
		switch m.Type {
		case transport.MsgShutdown:
			return nil
		case transport.MsgKeyFrame:
			kf, err := transport.DecodeKeyFrame(m.Body)
			if err != nil {
				return err
			}
			r, err := s.Step(kf)
			if err != nil {
				return err
			}
			// Journal before sending: when the send fails mid-flight the
			// client may or may not have applied the diff, and only the
			// journal entry lets the resume replay disambiguate by Seq.
			s.observer().Diff(r.Seq, r.Body)
			sendErr := conn.Send(transport.Message{Type: transport.MsgStudentDiff, Body: r.Body})
			// Off the round trip: the client applies this diff, now or in a
			// replay.
			if err := s.Commit(r.Body); err != nil {
				return err
			}
			if sendErr != nil {
				return connLost("sending student diff", sendErr)
			}
		default:
			return fmt.Errorf("core: server: unexpected message %v", m.Type)
		}
	}
}

// Reply is what Step makes of one key frame.
type Reply struct {
	Seq   uint64 // the diff's sequence number, now DiffSeq
	Body  []byte // the MsgStudentDiff body, freshly allocated
	Train TrainResult
}

// Step is Algorithm 3's work on one key frame (lines 3–6), with no conn and
// no clock: validate kf, label it with the teacher, distil, and encode the
// trainable parameters against the View under DiffCodec. A key frame it
// refuses returns a plain error before any training. The View is untouched
// until the caller Commits the body it sent.
func (s *Server) Step(kf transport.KeyFrame) (Reply, error) {
	if err := s.validate(kf); err != nil {
		return Reply{}, err
	}
	s.LastKFSeq = kf.Seq
	frame := video.Frame{Index: int(kf.FrameIndex), Image: kf.Image, Label: kf.Label}
	tr := s.Distiller.Train(frame, s.Teacher.Infer(frame))
	s.observer().Train(tr)
	params := nn.TrainableSubset(s.Distiller.Student.Params)
	diff := transport.StudentDiff{
		FrameIndex: kf.FrameIndex,
		Metric:     tr.Metric,
		Params:     params,
		Seq:        s.DiffSeq + 1,
		Ref:        s.reference(params),
		Codec:      s.DiffCodec,
	}
	body, err := transport.EncodeStudentDiff(diff)
	if err != nil {
		return Reply{}, err
	}
	s.DiffSeq = diff.Seq
	return Reply{Seq: diff.Seq, Body: body, Train: tr}, nil
}

// Commit makes what a sent Step body decodes to the View: the client
// applies it, now or in a replay. Commit each body once, in Seq order.
func (s *Server) Commit(body []byte) error {
	d, err := transport.DecodeStudentDiff(body)
	if err == nil {
		err = d.Resolve(s.View)
	}
	if err != nil {
		return fmt.Errorf("core: decoding own diff: %w", err)
	}
	s.setView(d.Params)
	return nil
}

// reference returns the View when it names exactly params, in order — what
// a relative section's hash covers — and nil otherwise (no checkpoint sent
// yet, or a move changed what trains), which makes the diff absolute.
func (s *Server) reference(params []*nn.Parameter) *nn.ParamSet {
	sameName := func(a, b *nn.Parameter) bool { return a.Name == b.Name }
	if s.View == nil || !slices.EqualFunc(s.View.All(), params, sameName) {
		return nil
	}
	return s.View
}

// setView makes held — parameters as the client decoded them, a whole
// checkpoint or one diff's, in the student's order — the View, restricted
// to the trainable subset.
func (s *Server) setView(held []*nn.Parameter) {
	s.View = nn.NewParamSet()
	for _, p := range nn.TrainableSubset(s.Distiller.Student.Params) {
		for held[0].Name != p.Name {
			held = held[1:]
		}
		s.View.Add(p.Name, held[0].Value)
	}
}

// validate refuses a key frame that is not after the last one (a confused
// resume: a client that re-attached to the wrong session state), or that
// would fail the session's student or teacher deep inside training: a
// misshapen image, an oracle label with out-of-range classes or the wrong
// size (DecodeKeyFrame does not know NumClasses), a missing label the
// teacher requires, or a non-finite pixel — which would leave the trainable
// weights non-finite after one Train, and the diff would ship them. A panic
// in training takes down every session in the process; a hostile client
// must only fail its own.
func (s *Server) validate(kf transport.KeyFrame) error {
	if kf.Seq <= s.LastKFSeq {
		return fmt.Errorf("core: key frame seq %d not after %d (replayed or cross-session stream)", kf.Seq, s.LastKFSeq)
	}
	if err := s.Distiller.Student.CheckInput(kf.Image); err != nil {
		return fmt.Errorf("core: key frame %d: %w", kf.FrameIndex, err)
	}
	if n, want := len(kf.Label), kf.Image.Dim(1)*kf.Image.Dim(2); n != 0 && n != want {
		return fmt.Errorf("core: key frame label has %d pixels, image has %d", n, want)
	}
	for _, c := range kf.Label {
		if n := s.Distiller.Student.Config.NumClasses; c < 0 || int(c) >= n {
			return fmt.Errorf("core: key frame label class %d out of range [0,%d)", c, n)
		}
	}
	if lr, ok := s.Teacher.(teacher.LabelRequirer); ok && lr.RequiresLabel() && len(kf.Label) == 0 {
		return fmt.Errorf("core: key frame carries no ground-truth label, but teacher %q requires one", s.Teacher.Name())
	}
	if !kf.Image.AllFinite() {
		return fmt.Errorf("core: key frame %d has a non-finite pixel", kf.FrameIndex)
	}
	return nil
}
