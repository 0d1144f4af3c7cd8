package serve

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/resume"
	"repro/internal/teacher"
)

// seedSession is a small parked session to build fuzz seeds from, plus the
// base checkpoint its student was cloned from.
func seedSession() (*resume.Session, *nn.Student) {
	base := tinyStudent(41)
	srv := core.NewServer(core.DefaultConfig(), base.Clone(), teacher.NewOracle(7))
	srv.DiffSeq, srv.LastKFSeq = 3, 3
	j := resume.NewJournal(4)
	j.Append(2, []byte{1, 2, 3})
	j.Append(3, []byte{4, 5})
	return &resume.Session{ID: 7, Epoch: 2, AltEpoch: 1, LastSeq: 3, State: srv, Journal: j}, base
}

// seedEnvelope builds a small, structurally valid envelope under codec so
// the fuzzer starts from real framing instead of rediscovering the magic by
// chance. A delta codec is bound to the session's own base.
func seedEnvelope(codec compress.Codec) []byte {
	ds, base := seedSession()
	env, _, _, err := encodeSession(ds, compress.WithBase(codec, base.Params))
	if err != nil {
		return nil
	}
	return env
}

// sth1Envelope is seedSession in the deleted STH1 format — header, three
// u32-length-prefixed raw nn.WriteNamed blobs, journal — byte for byte what
// the old encoder wrote. It exists only as a must-reject case: no decoder
// branch may come back for it.
func sth1Envelope() []byte {
	ds, _ := seedSession()
	srv, adam, err := exportableState(ds)
	if err != nil {
		return nil
	}
	step, mm, vv := adam.ExportState()
	var buf bytes.Buffer
	buf.WriteString("STH1")
	writeEnvelopeHeader(&buf, ds, srv, step)
	for _, ps := range [][]*nn.Parameter{srv.Distiller.Student.Params.All(), momentsToParams(mm), momentsToParams(vv)} {
		var blob bytes.Buffer
		if err := nn.WriteNamed(&blob, ps); err != nil {
			return nil
		}
		binary.Write(&buf, binary.LittleEndian, uint32(blob.Len()))
		buf.Write(blob.Bytes())
	}
	writeJournal(&buf, ds)
	return buf.Bytes()
}

// A well-formed envelope of the deleted STH1 format is refused outright.
func TestDecodeSessionEnvelopeRejectsSTH1(t *testing.T) {
	env := sth1Envelope()
	if env == nil {
		t.Fatal("could not build the STH1 seed")
	}
	if _, err := DecodeSessionEnvelope(env); err == nil {
		t.Fatal("STH1 envelope accepted")
	}
	m, _ := resumeManager(t, 4)
	if err := m.ImportParked(env); err == nil {
		t.Fatal("STH1 envelope imported")
	}
}

// FuzzDecodeSessionEnvelope hammers the handoff envelope decoder: it must
// never panic or force a giant allocation on corrupt input (a hardened
// boundary even though envelopes travel router-internal today), and any
// envelope it accepts must satisfy its own invariants — in particular the
// strictly increasing journal, which the Journal ring turns into a panic
// on import if the decoder ever lets a violation through.
func FuzzDecodeSessionEnvelope(f *testing.F) {
	for _, codec := range []compress.Codec{compress.Raw{}, &compress.Delta{Inner: compress.Int8{}}} {
		if env := seedEnvelope(codec); env != nil {
			f.Add(env)
		}
	}
	sth1 := sth1Envelope()
	f.Add(sth1)
	f.Add([]byte("STH1"))
	f.Add([]byte("STH2"))
	f.Add([]byte("STH3"))
	f.Add([]byte{})
	if env := seedEnvelope(compress.Raw{}); env != nil {
		copy(env, "STH2") // no ClientExact byte, DLT1 blobs: the magic alone must refuse it
		f.Add(env)
	}

	base := tinyStudent(41).Params
	f.Fuzz(func(t *testing.T, b []byte) {
		dec, err := DecodeSessionEnvelope(b)
		if err != nil {
			return
		}
		if bytes.HasPrefix(b, []byte("STH1")) || bytes.HasPrefix(b, []byte("STH2")) {
			t.Fatalf("accepted an envelope with the %s magic", b[:4])
		}
		// Materializing an accepted envelope against a base must never
		// panic or allocate unboundedly, however hostile the codec blobs.
		_ = dec.Materialize(base)
		var last uint64
		for _, e := range dec.Journal {
			if e.Seq <= last {
				t.Fatalf("accepted journal with non-increasing seq %d after %d", e.Seq, last)
			}
			last = e.Seq
		}
		if dec.DiffSeq < last {
			t.Fatalf("accepted diff seq %d behind journal head %d", dec.DiffSeq, last)
		}
		// The decoder is pure: the same bytes must decode identically.
		again, err2 := DecodeSessionEnvelope(b)
		if err2 != nil || again.ID != dec.ID || len(again.Journal) != len(dec.Journal) {
			t.Fatal("decoder not deterministic")
		}
	})
}
