package nn

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// StudentConfig sizes the student network of Fig. 3b. The defaults mirror
// the paper's channel progression (8, 64, 64, 128, 128, 128, 96, 32, 32, 9)
// scaled down so pure-Go online distillation stays interactive; the
// architecture (two stem convs, six student blocks, SB1/SB2 skip concats,
// three output convs) is unchanged.
type StudentConfig struct {
	InChannels int // input image channels (3 = RGB)
	NumClasses int // output classes incl. background (paper: 8+1)
	Stem1      int // in1 output channels (stride 2)
	Stem2      int // in2 output channels (stride 2)
	B1, B2     int // SB1 (stride 1), SB2 (stride 2) channels
	B3, B4     int // SB3, SB4 channels (the frozen backbone tail)
	B5, B6     int // SB5, SB6 channels (decoder, always trainable)
	Head       int // out1/out2 channels before the classifier
}

// DefaultStudentConfig returns the configuration used throughout the
// reproduction: ~60k parameters at 96×64 input, with the decoder cut at SB5
// giving a trainable fraction close to the paper's 21.4%.
func DefaultStudentConfig() StudentConfig {
	return StudentConfig{
		InChannels: 3, NumClasses: 9,
		Stem1: 8, Stem2: 24,
		B1: 24, B2: 56,
		B3: 56, B4: 56,
		B5: 24, B6: 16,
		Head: 16,
	}
}

// FreezePrefixes returns the parameter-name prefixes that partial
// distillation freezes: everything from the input stem through SB4 (§5.2:
// "we freeze the student from the first layer to SB4, only computing
// gradients until SB5").
func FreezePrefixes() []string {
	return []string{"in1", "in2", "sb1", "sb2", "sb3", "sb4"}
}

// Student is the paper's student model (Fig. 3b): a fully-convolutional
// encoder–decoder. in1 and in2 downsample by 2× each; SB2 downsamples once
// more; SB5 and SB6 upsample back, consuming skip concats from SB2 and SB1
// respectively; the head restores full resolution logits.
type Student struct {
	Config StudentConfig
	Params *ParamSet

	in1, in2                     *Conv2D
	sb1, sb2, sb3, sb4, sb5, sb6 *StudentBlock
	out1, out2, out3             *Conv2D

	// inferCtx is the reusable inference context: its tape leases every
	// activation from tensor.SharedPool and hands all back before Infer
	// returns, so steady-state Infer calls allocate (almost) nothing and hold
	// nothing between. maskBuf is the argmax output, halfMask its source.
	// prefixCtx is its twin for Prefix, separate so the frozen stages'
	// activations outlive the passes that start from them, until
	// ReleasePrefix. batchMasks holds InferBatch's recycled per-frame masks.
	inferCtx   *ForwardCtx
	prefixCtx  *ForwardCtx
	maskBuf    []int32
	halfMask   []int32
	batchMasks [][]int32
}

// SetBackend pins the compute backend for this student's inference path
// (nil reverts to vec): the seam the tests run tensor.Reference through.
// Training passes ride the caller's ForwardCtx workspace instead. The
// reusable inference contexts are rebuilt on the new backend.
func (s *Student) SetBackend(b tensor.Backend) {
	s.inferCtx = NewForwardCtxWS(false, tensor.NewWorkspace().SetBackend(b))
	s.prefixCtx = NewForwardCtxWS(false, tensor.NewWorkspace().SetBackend(b))
}

// NewStudent builds a freshly initialised student from cfg using rng.
func NewStudent(cfg StudentConfig, rng *rand.Rand) *Student {
	ps := NewParamSet()
	s := &Student{Config: cfg, Params: ps}
	s.in1 = NewConv2D(ps, "in1", cfg.InChannels, cfg.Stem1, tensor.Spec(3, 3).WithStride(2), true, rng)
	s.in2 = NewConv2D(ps, "in2", cfg.Stem1, cfg.Stem2, tensor.Spec(3, 3).WithStride(2), true, rng)
	s.sb1 = NewStudentBlock(ps, "sb1", cfg.Stem2, cfg.B1, 1, rng)
	s.sb2 = NewStudentBlock(ps, "sb2", cfg.B1, cfg.B2, 2, rng)
	s.sb3 = NewStudentBlock(ps, "sb3", cfg.B2, cfg.B3, 1, rng)
	s.sb4 = NewStudentBlock(ps, "sb4", cfg.B3, cfg.B4, 1, rng)
	// SB5 consumes SB4 output concatenated with the SB2 skip.
	s.sb5 = NewStudentBlock(ps, "sb5", cfg.B4+cfg.B2, cfg.B5, 1, rng)
	// SB6 runs at 1/4 resolution, consuming upsampled SB5 + the SB1 skip.
	s.sb6 = NewStudentBlock(ps, "sb6", cfg.B5+cfg.B1, cfg.B6, 1, rng)
	s.out1 = NewConv2D(ps, "out1", cfg.B6, cfg.Head, tensor.Spec(3, 3), true, rng)
	s.out2 = NewConv2D(ps, "out2", cfg.Head, cfg.Head, tensor.Spec(3, 3), true, rng)
	s.out3 = NewConv2D(ps, "out3", cfg.Head, cfg.NumClasses, tensor.Spec(1, 1), true, rng)
	s.SetBackend(nil)
	return s
}

// NewStudentForWire builds a default-architecture student with throwaway
// initialisation, intended to be overwritten by a checkpoint received over
// the network (the client side of Algorithm 3 line 1: the server "can
// simply supply the student weights when the system starts", §4.1.3).
func NewStudentForWire() *Student {
	return NewStudent(DefaultStudentConfig(), rand.New(rand.NewSource(1)))
}

// stageNames lists the forward pass's stages — the points at which it can
// be cut — in execution order, which is also the order NewStudent registers
// their parameters in. Each is the name prefix of its stage's parameters.
var stageNames = [...]string{"in1", "in2", "sb1", "sb2", "sb3", "sb4", "sb5", "sb6", "out1", "out2", "out3"}

// Activations is the forward pass stopped at a stage boundary: the running
// activation plus the SB1/SB2 skip tensors while a later stage still
// consumes them. Forward starts from the boundary before in1 (the image);
// Prefix stops at the end of the frozen stages.
type Activations struct {
	depth     int // stages already applied
	x, f1, f2 *tensor.Tensor
}

// pass is Activations on a tape.
type pass struct{ x, f1, f2 *autodiff.Variable }

// CheckInput refuses an image this student cannot take: it must be CHW with
// the student's InChannels and spatial dimensions multiples of 8.
func (s *Student) CheckInput(img *tensor.Tensor) error {
	if img.Rank() != 3 || img.Dim(0) != s.Config.InChannels || img.Dim(1)%8 != 0 || img.Dim(2)%8 != 0 {
		return fmt.Errorf("nn: student input %v is not CHW with %d channels and sides divisible by 8", img.Shape(), s.Config.InChannels)
	}
	return nil
}

// input returns a CHW image (values in [0,1]) as the depth-0 boundary,
// panicking on one CheckInput refuses.
func (s *Student) input(img *tensor.Tensor) Activations {
	if err := s.CheckInput(img); err != nil {
		panic(err)
	}
	return Activations{x: img}
}

// run enters the boundary a on fc's tape as constants and applies the
// stages from there up to stage `to`: the one body of the network,
// whichever boundary a pass starts or stops at. Each activation goes back to
// the tape after its last consumer (autodiff.Tape.Free), so a pass that
// needs no gradient holds one layer's activations, not the graph's; what run
// returns — the running activation and the skips a later stage still reads —
// is never freed here.
func (s *Student) run(fc *ForwardCtx, a Activations, to int) pass {
	t := fc.Tape
	constant := func(v *tensor.Tensor) *autodiff.Variable {
		if v == nil {
			return nil
		}
		return t.Constant(v)
	}
	p := pass{x: constant(a.x), f1: constant(a.f1), f2: constant(a.f2)}
	// step moves the pass on to y, computed from p.x by p.x's last consumer
	// unless p.x is also a pending skip.
	step := func(y *autodiff.Variable) {
		if p.x != p.f1 && p.x != p.f2 {
			t.Free(p.x)
		}
		p.x = y
	}
	for i := a.depth; i < to; i++ {
		switch i {
		case 0:
			step(convReLU(fc, s.in1, p.x)) // 1/2 res, Stem1 ch
		case 1:
			step(convReLU(fc, s.in2, p.x)) // 1/4 res, Stem2 ch
		case 2:
			step(s.sb1.Forward(fc, p.x)) // 1/4 res, B1 ch  (skip → SB6)
			p.f1 = p.x
		case 3:
			step(s.sb2.Forward(fc, p.x)) // 1/8 res, B2 ch  (skip → SB5)
			p.f2 = p.x
		case 4:
			step(s.sb3.Forward(fc, p.x)) // 1/8 res
		case 5:
			step(s.sb4.Forward(fc, p.x)) // 1/8 res — the paper's frozen boundary
		case 6:
			step(t.Concat(p.x, p.f2)) // 1/8 res, B4+B2 ch
			t.Free(p.f2)
			p.f2 = nil
			step(s.sb5.Forward(fc, p.x)) // B5 ch
		case 7:
			step(t.Upsample2x(p.x))   // 1/4 res
			step(t.Concat(p.x, p.f1)) // B5+B1 ch
			t.Free(p.f1)
			p.f1 = nil
			step(s.sb6.Forward(fc, p.x)) // B6 ch
		case 8:
			step(t.Upsample2x(p.x)) // 1/2 res
			step(convReLU(fc, s.out1, p.x))
		case 9:
			step(convReLU(fc, s.out2, p.x))
		case 10:
			step(t.Upsample2x(p.x)) // full res
			step(s.out3.Forward(fc, p.x))
		}
	}
	return p
}

// frozenDepth returns how many leading stages hold only frozen parameters:
// the deepest boundary Prefix can stop at.
func (s *Student) frozenDepth() int {
	d := 0
	for _, p := range s.Params.All() {
		for !strings.HasPrefix(p.Name, stageNames[d]) {
			d++
		}
		if !p.Frozen {
			return d
		}
	}
	return len(stageNames)
}

// ForwardFrom runs the network on fc's tape from the boundary a holds —
// Prefix's, or the image's — and returns the logits variable [NumClasses,
// H, W]: the activations enter the tape as constants and only the remaining
// stages run. After Prefix, those are exactly the stages with something
// left to train, and the logits, the gradients and the backward closures
// recorded are those of a whole pass on the same image.
func (s *Student) ForwardFrom(fc *ForwardCtx, a Activations) *autodiff.Variable {
	return s.run(fc, a, len(stageNames)).x
}

// Prefix runs the frozen stages of the network on img — every leading stage
// whose parameters are all frozen, so none under full distillation and
// in1…SB4 under the paper's cut — and returns the boundary for ForwardFrom
// and InferFrom to continue from. A frozen stage is a pure function of its
// weights and the image (see BatchNorm2D), so however many passes a key
// frame takes, this part of each is the same and is computed once.
//
// The activations live in a context private to Prefix: they survive any
// number of ForwardFrom/InferFrom passes and are valid until ReleasePrefix
// or the next Prefix call on this student, or until the freeze cut or a
// frozen weight changes. The caller hands them back with ReleasePrefix.
func (s *Student) Prefix(img *tensor.Tensor) Activations {
	a := s.input(img)
	depth := s.frozenDepth()
	if depth == 0 {
		return a
	}
	s.prefixCtx.Reset(false)
	p := s.run(s.prefixCtx, a, depth)
	a = Activations{depth: depth, x: p.x.Value}
	if p.f1 != nil {
		a.f1 = p.f1.Value
	}
	if p.f2 != nil {
		a.f2 = p.f2.Value
	}
	return a
}

// ReleasePrefix hands the activations the last Prefix returned back to the
// pool.
func (s *Student) ReleasePrefix() { s.prefixCtx.Reset(false) }

// Leased reports the workspace leases s holds: Prefix's activations until
// ReleasePrefix, and otherwise none.
func (s *Student) Leased() int {
	return s.inferCtx.Tape.Workspace().Leased() + s.prefixCtx.Tape.Workspace().Leased()
}

// Infer runs a gradient-free forward pass and returns the argmax mask
// (len H*W): the class of each pixel's largest logit, the first on a tie.
//
// The mask lives in a buffer owned by the student and is only valid until
// the next Infer or InferFrom call on the same student; callers that keep
// it across frames must copy. (Every in-tree caller consumes it
// immediately.) Like training, Infer is not safe for concurrent use on one
// student — sessions each own a private clone. ForwardFrom gives the logits.
func (s *Student) Infer(img *tensor.Tensor) []int32 {
	return s.InferFrom(s.input(img))
}

// InferFrom is Infer started at the boundary a holds (see ForwardFrom).
//
// It runs the head at half resolution: out3, a 1x1 stride-1 unpadded conv,
// is applied before the last nearest-2x upsample instead of after it, and
// the half-resolution argmax mask is upsampled instead of the logits. A
// pointwise conv commutes with nearest upsampling value for value — each
// full-resolution logit is the GEMM column of its half-resolution source
// pixel, and a column's value does not depend on the tile it lands in
// (batch.go) — so the mask is the full-resolution pass's, ties included,
// for a quarter of out3's work. The training forward keeps full resolution:
// the loss and out3's weight gradient need it.
func (s *Student) InferFrom(a Activations) []int32 {
	head := len(stageNames) - 1 // out3
	if a.depth > head {
		// Prefix ran every stage: a.x already is the logits.
		s.maskBuf = a.x.ArgmaxChannel(s.maskBuf)
		return s.maskBuf
	}
	fc := s.inferCtx
	x := s.run(fc, a, head).x // out2's output, half resolution
	logits := s.out3.Forward(fc, x).Value
	s.halfMask = logits.ArgmaxChannel(s.halfMask)
	s.maskBuf = upsampleMask2x(s.maskBuf, s.halfMask, logits.Dim(1), logits.Dim(2))
	fc.Reset(false) // the pass's leases go back before it returns
	return s.maskBuf
}

// upsampleMask2x writes the nearest-2x upsample of the h*w mask src into
// dst, reallocating it unless it already holds 4*h*w entries.
func upsampleMask2x(dst, src []int32, h, w int) []int32 {
	if len(dst) != 4*h*w {
		dst = make([]int32, 4*h*w)
	}
	for y := 0; y < h; y++ {
		even := dst[2*y*2*w : (2*y+1)*2*w]
		for x, v := range src[y*w : (y+1)*w] {
			even[2*x], even[2*x+1] = v, v
		}
		copy(dst[(2*y+1)*2*w:(2*y+2)*2*w], even)
	}
	return dst
}

// InferBatch is Infer over a list of same-channel CHW images, one frame at a
// time, returning one argmax mask (len H*W) per image. The masks live in
// buffers owned by the student and are valid until the next InferBatch call;
// callers that keep them must copy.
func (s *Student) InferBatch(imgs []*tensor.Tensor) [][]int32 {
	for len(s.batchMasks) < len(imgs) {
		s.batchMasks = append(s.batchMasks, nil)
	}
	masks := s.batchMasks[:len(imgs)]
	for i, img := range imgs {
		masks[i] = append(masks[i][:0], s.Infer(img)...)
	}
	return masks
}

// SetPartial configures the freeze state: partial=true freezes the stem
// through SB4 (paper §5.2); partial=false unfreezes everything except BN
// running statistics, which FreezePrefix keeps frozen under every cut.
func (s *Student) SetPartial(partial bool) {
	if partial {
		s.Params.FreezePrefix(FreezePrefixes()...)
	} else {
		s.Params.UnfreezeAll()
	}
}

// Clone deep-copies the student (weights, frozen flags, config): the same
// layers over a private copy of every parameter, with no initialisation.
func (s *Student) Clone() *Student { return s.fork(false) }

// SharePrefix is Clone under the partial cut (SetPartial(true)) that copies
// only the TrainableSubset: every other tensor is s's own, shared read-only,
// so s's frozen stages must not change while the clone lives. Whatever
// unfreezes a shared tensor later (ParamSet.FreezePrefix) copies it first.
func (s *Student) SharePrefix() *Student {
	c := s.fork(true)
	c.SetPartial(true)
	return c
}

// fork returns s's config, backend and layers over new Parameters, frozen as
// s's are, that hold copies of s's tensors or, when share, the tensors.
func (s *Student) fork(share bool) *Student {
	ps := NewParamSet()
	to := map[*Parameter]*Parameter{}
	for _, p := range s.Params.All() {
		v := p.Value
		if !share {
			v = v.Clone()
		}
		c := ps.Add(p.Name, v)
		c.Frozen, c.Shared = p.Frozen, share
		to[p] = c
	}
	conv := func(l *Conv2D) *Conv2D {
		if l == nil {
			return nil
		}
		return &Conv2D{Spec: l.Spec, Weight: to[l.Weight], Bias: to[l.Bias]}
	}
	block := func(b *StudentBlock) *StudentBlock {
		c, bn := *b, *b.BN
		bn.Gamma, bn.Beta, bn.RunMean, bn.RunVar = to[bn.Gamma], to[bn.Beta], to[bn.RunMean], to[bn.RunVar]
		c.BN, c.C33, c.C31, c.C13, c.C11, c.Proj = &bn, conv(b.C33), conv(b.C31), conv(b.C13), conv(b.C11), conv(b.Proj)
		return &c
	}
	c := &Student{Config: s.Config, Params: ps,
		in1: conv(s.in1), in2: conv(s.in2), out1: conv(s.out1), out2: conv(s.out2), out3: conv(s.out3),
		sb1: block(s.sb1), sb2: block(s.sb2), sb3: block(s.sb3), sb4: block(s.sb4), sb5: block(s.sb5), sb6: block(s.sb6)}
	c.SetBackend(s.inferCtx.Tape.Workspace().Backend())
	return c
}
