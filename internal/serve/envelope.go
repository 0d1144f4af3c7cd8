package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/resume"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// This file makes a parked session a fully serializable value: a
// SessionEnvelope captures everything the server holds for one client —
// student weights, Adam moments and step counter, diff/key-frame sequence
// counters, epochs, the replay journal, and the distillation statistics
// that will eventually fold into aggregate stats. A router (internal/fabric)
// uses it for cross-shard handoff: when a resume hashes to a shard that
// does not own the parked state, the router exports the envelope from the
// session's old home and imports it on the new one, and a shard drain
// migrates parked sessions the same way instead of evicting them.

// envelopeMagic versions the envelope wire format: the student params run
// through a named compress codec (typically delta-encoded against the
// fabric's shared base checkpoint) and the Adam moments through nil-base
// delta streams whose inner codecs follow the params codec's exactness (see
// encodeSession). STH3 added the ClientExact byte and moved to the DLT2
// delta layout; an STH2 envelope is rejected.
var envelopeMagic = [4]byte{'S', 'T', 'H', '3'}

// Envelope limits: a journal is a small bounded ring and the tensors of
// one student; anything past these is a corrupt or hostile envelope and
// must fail the decode before any large allocation.
const (
	maxEnvelopeJournal = 1 << 16
	maxEnvelopeBlob    = 1 << 28
)

// SessionEnvelope is the decoded, self-contained state of one parked
// session. Params carries the full student checkpoint; AdamM/AdamV carry
// the optimizer's first/second moments keyed by parameter name (trainable
// parameters only — frozen ones never accumulate moments).
type SessionEnvelope struct {
	ID       uint64
	Epoch    uint64
	AltEpoch uint64
	LastSeq  uint64

	DiffSeq   uint64
	LastKFSeq uint64
	// ClientExact says whether the client still holds exactly the student
	// this envelope decodes to: the exporter's core.Server.ClientExact, and
	// the params blob reproducing that student bit for bit. When it is
	// false the importing shard's first diff goes absolute.
	ClientExact bool

	AdamStep      int
	TotalSteps    int
	TotalTrains   int
	TotalStepTime time.Duration

	Params []*nn.Parameter
	AdamM  []*nn.Parameter
	AdamV  []*nn.Parameter

	Journal []resume.Entry

	// CodecName names the compress codec the params blob was encoded with.
	// The model state stays in the deferred blobs below until Materialize
	// supplies the base checkpoint the codec may be relative to.
	CodecName string

	paramsBlob []byte
	mBlob      []byte
	vBlob      []byte
}

// Materialize decodes the envelope's deferred model-state blobs into
// Params/AdamM/AdamV against base, the importing shard's pretrained
// checkpoint (every shard of a fabric shares one by construction). It is a
// no-op for an envelope already materialized.
func (env *SessionEnvelope) Materialize(base *nn.ParamSet) error {
	if env.paramsBlob == nil && env.mBlob == nil && env.vBlob == nil {
		return nil
	}
	c, ok := compress.ByName(env.CodecName)
	if !ok {
		return fmt.Errorf("serve: envelope names unknown codec %q", env.CodecName)
	}
	c = compress.WithBase(c, base)
	decode := func(codec compress.Codec, blob []byte, what string) ([]*nn.Parameter, error) {
		r := bytes.NewReader(blob)
		params, err := codec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("serve: envelope %s: %w", what, err)
		}
		if r.Len() != 0 {
			return nil, fmt.Errorf("serve: envelope %s has %d trailing bytes", what, r.Len())
		}
		return params, nil
	}
	var err error
	if env.Params, err = decode(c, env.paramsBlob, "student"); err != nil {
		return err
	}
	// Moments are nil-base delta streams; the stream self-describes its
	// inner codec (raw, int8 or bf16 depending on the sender's envelope
	// codec), so this decoder instance only supplies the matching nil Base.
	moments := &compress.Delta{Inner: compress.Raw{}}
	if env.AdamM, err = decode(moments, env.mBlob, "adam-m"); err != nil {
		return err
	}
	if env.AdamV, err = decode(moments, env.vBlob, "adam-v"); err != nil {
		return err
	}
	env.paramsBlob, env.mBlob, env.vBlob = nil, nil, nil
	return nil
}

// errNotExportable reports session state the envelope codec does not
// understand (a Store owner other than this package).
var errNotExportable = errors.New("serve: session state is not an exportable core.Server")

// momentsToParams flattens an optimizer moment map into name-sorted
// parameters so the envelope encoding is deterministic.
func momentsToParams(m map[string]*tensor.Tensor) []*nn.Parameter {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*nn.Parameter, 0, len(names))
	for _, n := range names {
		out = append(out, &nn.Parameter{Name: n, Value: m[n]})
	}
	return out
}

func paramsToMoments(ps []*nn.Parameter) map[string]*tensor.Tensor {
	out := make(map[string]*tensor.Tensor, len(ps))
	for _, p := range ps {
		out[p.Name] = p.Value
	}
	return out
}

// readRawBlob reads one u32-length-prefixed blob, bounds-checked against
// both the blob cap and the bytes actually remaining. io.ReadFull (not a
// bare Read) so a short read can never yield a silently truncated blob.
func readRawBlob(r *bytes.Reader, what string) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("serve: envelope %s length: %w", what, err)
	}
	if n > maxEnvelopeBlob || int64(n) > int64(r.Len()) {
		return nil, fmt.Errorf("serve: envelope %s claims %d bytes, %d remain", what, n, r.Len())
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(r, blob); err != nil {
		return nil, fmt.Errorf("serve: envelope %s body: %w", what, err)
	}
	return blob, nil
}

// exportableState extracts the server and Adam state an envelope carries.
func exportableState(ds *resume.Session) (*core.Server, *optim.Adam, error) {
	srv, ok := ds.State.(*core.Server)
	if !ok {
		return nil, nil, errNotExportable
	}
	adam, ok := srv.Distiller.Opt.(*optim.Adam)
	if !ok {
		return nil, nil, fmt.Errorf("serve: session %d optimizer %T is not handoff-serializable", ds.ID, srv.Distiller.Opt)
	}
	return srv, adam, nil
}

func writeEnvelopeHeader(buf *bytes.Buffer, ds *resume.Session, srv *core.Server, step int) {
	for _, u := range []uint64{
		ds.ID, ds.Epoch, ds.AltEpoch, ds.LastSeq,
		srv.DiffSeq, srv.LastKFSeq,
		uint64(step), uint64(srv.Distiller.TotalSteps), uint64(srv.Distiller.TotalTrains),
		uint64(srv.Distiller.TotalStepTime),
	} {
		binary.Write(buf, binary.LittleEndian, u)
	}
}

func writeJournal(buf *bytes.Buffer, ds *resume.Session) {
	var entries []resume.Entry
	if ds.Journal != nil {
		entries = ds.Journal.All()
	}
	binary.Write(buf, binary.LittleEndian, uint32(len(entries)))
	for _, e := range entries {
		binary.Write(buf, binary.LittleEndian, e.Seq)
		binary.Write(buf, binary.LittleEndian, uint32(len(e.Body)))
		buf.Write(e.Body)
	}
}

// encodeSession serialises a parked session (whose State must be the
// *core.Server this package parks) into a self-contained handoff envelope:
// student params through codec (delta-encoded against the shared base when
// codec is a delta), Adam moments through nil-base delta streams, and the
// journal verbatim. The moments' inner codecs follow the params codec's
// exactness: under an exact inner everything stays bit-identical (the
// contract for raw and delta+raw); under a lossy inner the first moment
// rides the same inner as the params — m is linear in the update and
// re-accumulates
// within ~1/(1−β₁) ≈ 10 steps, so it tolerates the params' quantizer — but
// the second moment always rides bf16, whose intact exponent never flushes
// a small v to zero (an int8 scale would, inflating the resumed session's
// steps by ~1/ε until β₂ decay rebuilds the moment ~1000 steps later).
// Alongside the envelope it returns the model-state byte count and the
// raw-blob baseline those bytes replaced, for shrink accounting.
func encodeSession(ds *resume.Session, codec compress.Codec) (env []byte, ckBytes, ckBaseline int, err error) {
	srv, adam, err := exportableState(ds)
	if err != nil {
		return nil, 0, 0, err
	}
	step, mm, vv := adam.ExportState()

	name := codec.Name()
	if len(name) > 255 {
		return nil, 0, 0, fmt.Errorf("serve: envelope codec name %q too long", name)
	}
	var buf bytes.Buffer
	buf.Write(envelopeMagic[:])
	writeEnvelopeHeader(&buf, ds, srv, step)
	buf.WriteByte(byte(len(name)))
	buf.WriteString(name)

	inner := compress.Inner(codec)
	vInner := inner
	if !compress.Exact(inner) {
		vInner = compress.Bf16{}
	}
	blobs := []struct {
		c  compress.Codec
		ps []*nn.Parameter
	}{
		{codec, srv.Distiller.Student.Params.All()},
		{&compress.Delta{Inner: inner}, momentsToParams(mm)},
		{&compress.Delta{Inner: vInner}, momentsToParams(vv)},
	}
	clientExact := srv.ClientExact
	for i, b := range blobs {
		var blob bytes.Buffer
		exact, err := compress.EncodeExact(b.c, &blob, b.ps)
		if err != nil {
			return nil, 0, 0, err
		}
		if i == 0 && !exact {
			clientExact = false // the importer will hold a student the client does not
		}
		binary.Write(&buf, binary.LittleEndian, uint32(blob.Len()))
		buf.Write(blob.Bytes())
		ckBytes += blob.Len()
		ckBaseline += nn.EncodedSize(b.ps)
	}
	if clientExact {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	writeJournal(&buf, ds)
	return buf.Bytes(), ckBytes, ckBaseline, nil
}

// DecodeSessionEnvelope parses a handoff envelope. It validates framing,
// blob bounds and journal monotonicity so a corrupt envelope fails the
// decode instead of panicking the importing shard (the journal ring panics
// on non-increasing appends by contract).
func DecodeSessionEnvelope(b []byte) (*SessionEnvelope, error) {
	r := bytes.NewReader(b)
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil || magic != envelopeMagic {
		return nil, fmt.Errorf("serve: bad envelope magic %q", magic[:])
	}
	var env SessionEnvelope
	var step, totalSteps, totalTrains, stepTime uint64
	for _, dst := range []*uint64{
		&env.ID, &env.Epoch, &env.AltEpoch, &env.LastSeq,
		&env.DiffSeq, &env.LastKFSeq,
		&step, &totalSteps, &totalTrains, &stepTime,
	} {
		if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
			return nil, fmt.Errorf("serve: envelope header: %w", err)
		}
	}
	// The counters are small non-negative ints in practice; reject values
	// that would overflow int (or a sane time.Duration — 1<<48 ns is over
	// three days of pure step time) so downstream arithmetic stays sane.
	const maxCounter = 1 << 48
	if step > maxCounter || totalSteps > maxCounter || totalTrains > maxCounter || stepTime > maxCounter {
		return nil, fmt.Errorf("serve: envelope implausible counters (%d, %d, %d, %d)", step, totalSteps, totalTrains, stepTime)
	}
	env.AdamStep = int(step)
	env.TotalSteps = int(totalSteps)
	env.TotalTrains = int(totalTrains)
	env.TotalStepTime = time.Duration(stepTime)

	// Model state stays in opaque codec blobs until Materialize.
	nameLen, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("serve: envelope codec name length: %w", err)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("serve: envelope codec name: %w", err)
	}
	env.CodecName = string(name)
	if _, ok := compress.ByName(env.CodecName); !ok {
		return nil, fmt.Errorf("serve: envelope names unknown codec %q", env.CodecName)
	}
	if env.paramsBlob, err = readRawBlob(r, "student"); err != nil {
		return nil, err
	}
	if env.mBlob, err = readRawBlob(r, "adam-m"); err != nil {
		return nil, err
	}
	if env.vBlob, err = readRawBlob(r, "adam-v"); err != nil {
		return nil, err
	}
	exact, err := r.ReadByte()
	if err != nil || exact > 1 {
		return nil, fmt.Errorf("serve: envelope client-exact flag %d: %v", exact, err)
	}
	env.ClientExact = exact == 1

	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("serve: envelope journal count: %w", err)
	}
	if count > maxEnvelopeJournal {
		return nil, fmt.Errorf("serve: envelope implausible journal of %d entries", count)
	}
	var lastSeq uint64
	for i := uint32(0); i < count; i++ {
		var seq uint64
		if err := binary.Read(r, binary.LittleEndian, &seq); err != nil {
			return nil, fmt.Errorf("serve: envelope journal seq: %w", err)
		}
		if seq <= lastSeq {
			return nil, fmt.Errorf("serve: envelope journal seq %d not after %d", seq, lastSeq)
		}
		lastSeq = seq
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("serve: envelope journal body length: %w", err)
		}
		if int64(n) > int64(r.Len()) {
			return nil, fmt.Errorf("serve: envelope journal body claims %d bytes, %d remain", n, r.Len())
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("serve: envelope journal body: %w", err)
		}
		env.Journal = append(env.Journal, resume.Entry{Seq: seq, Body: body})
	}
	if env.DiffSeq < lastSeq {
		return nil, fmt.Errorf("serve: envelope diff seq %d behind journal head %d", env.DiffSeq, lastSeq)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("serve: envelope has %d trailing bytes", r.Len())
	}
	return &env, nil
}

// ExportParked removes the parked session with the given ID from this
// manager and returns its serialized envelope — one half of a cross-shard
// handoff or drain migration. The session's distillation counters travel
// inside the envelope, so nothing folds into this manager's stats (the
// session is moving, not completing). On encode failure the session is
// re-parked unchanged.
func (m *Manager) ExportParked(id uint64) ([]byte, error) {
	if m.store == nil {
		return nil, errors.New("serve: resumption disabled, nothing to export")
	}
	ds, err := m.store.Steal(id)
	if err != nil {
		return nil, err
	}
	env, ck, ckBase, err := encodeSession(ds, m.envCodec)
	if err != nil {
		m.store.Put(ds)
		return nil, err
	}
	m.countEnvelope(len(env), ck, ckBase)
	m.tm.detached.Set(float64(m.store.Len()))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvHandoff, Session: ds.ID, Epoch: uint32(ds.Epoch), Seq: ds.LastSeq, Shard: m.tm.shard, Detail: "export"})
	m.logf("session %d exported for handoff (epoch %d, %d journaled diffs, %d bytes)",
		ds.ID, ds.Epoch, ds.Journal.Len(), len(env))
	return env, nil
}

// ImportParked rebuilds a session from a handoff envelope and parks it on
// this manager as if it had detached here: a later Resume finds it through
// the ordinary epoch-checked path, with the full replay journal intact.
// The TTL clock restarts on import (the handoff is a fresh detachment from
// this shard's point of view). The student is reconstructed over a clone of
// this manager's base checkpoint, so the architectures must match — which
// they do by construction when every shard of a fabric shares one Options
// template.
func (m *Manager) ImportParked(envBytes []byte) error {
	if m.store == nil {
		return errors.New("serve: resumption disabled, cannot import")
	}
	env, err := DecodeSessionEnvelope(envBytes)
	if err != nil {
		return err
	}
	if err := env.Materialize(m.opts.Base.Params); err != nil {
		return err
	}

	// Never drop journal entries the exporter still held, whatever this
	// shard's own depth.
	depth := m.opts.JournalDepth
	if len(env.Journal) > depth {
		depth = len(env.Journal)
	}
	sess := m.newSession(depth)
	sess.id, sess.epoch = env.ID, env.Epoch
	srv, journal := sess.srv, sess.journal
	if err := nn.ApplyNamed(srv.Distiller.Student.Params, env.Params); err != nil {
		return fmt.Errorf("serve: envelope student mismatch: %w", err)
	}
	srv.DiffSeq = env.DiffSeq
	srv.LastKFSeq = env.LastKFSeq
	srv.ClientExact = env.ClientExact
	srv.Distiller.TotalSteps = env.TotalSteps
	srv.Distiller.TotalTrains = env.TotalTrains
	srv.Distiller.TotalStepTime = env.TotalStepTime
	adam, ok := srv.Distiller.Opt.(*optim.Adam)
	if !ok {
		return fmt.Errorf("serve: optimizer %T cannot adopt envelope state", srv.Distiller.Opt)
	}
	adam.ImportState(env.AdamStep, paramsToMoments(env.AdamM), paramsToMoments(env.AdamV))

	for _, e := range env.Journal {
		journal.Append(e.Seq, e.Body)
	}

	err = m.store.Put(&resume.Session{
		ID:       env.ID,
		Epoch:    env.Epoch,
		AltEpoch: env.AltEpoch,
		LastSeq:  env.LastSeq,
		State:    srv,
		Journal:  journal,
	})
	if err != nil {
		return err
	}
	m.tm.detached.Set(float64(m.store.Len()))
	m.tm.trace.Record(telemetry.Event{Time: time.Now(), Kind: telemetry.EvHandoff, Session: env.ID, Epoch: uint32(env.Epoch), Seq: env.LastSeq, Shard: m.tm.shard, Detail: "import"})
	m.logf("session %d imported via handoff (epoch %d, %d journaled diffs)",
		env.ID, env.Epoch, len(env.Journal))
	return nil
}
