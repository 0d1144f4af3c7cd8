package tensor

import (
	"fmt"
	"math"
)

// SoftmaxXentInto is the per-pixel body of a softmax cross-entropy over
// channel-major logits (logits[ch*ld+j], ch < c): for each pixel j < len(q),
// with p the softmax over channels computed in float64 as
// exp(x - max) / sum of exp(x - max) — channels summed in ascending order —
// and w = weights[j] (1 when weights is nil),
//
//	grad[ch*ld+j] = float32(w * (p[ch] - [ch == label[j]])) * inv
//	q[j]          = p[label[j]]
//
// except that a gradient entry whose float32 value is subnormal (|g| <
// 2^-126) is stored as the zero of its sign. The flush exists for the conv
// backward downstream: on the pinned drone key frames 5.0 % of the entries
// are subnormal, every FMA that reads one takes a microcode assist, and
// out3's backward ran 1.37 ms a call on them against 0.16 ms flushed (one
// core of a 2-core Xeon VM). It moves no trained weight on the pinned
// runs: the sums such an entry feeds in the backward are far larger, so it
// lies below half their ulp, and 160 drone key frames hash
// 0x57aeb31a218ea6ee with and without it. It runs in the store, on the
// scaled value, and is not the FPU's flush-to-zero mode, which would also
// touch the backward's and Adam's arithmetic.
//
// Labels must lie in [0, c). scratch is the working set: pixels run in
// chunks of len(scratch)/(c+1) rounded down to a multiple of 4, which must
// be at least 4.
//
// The max, the shift, the sums, the division and the label and weight
// terms run channel-major over each chunk — one contiguous logit and
// gradient row at a time — on AVX2+FMA kernels where those are selected,
// and the exponentials go through ExpInto. Every value is the scalar
// per-pixel form's, flush included, bit for bit on either kernel set: the
// same `x > max` selection (VMAXPD with x as the first source, NaN and ±0
// included), the same float64 subtraction, math.Exp's exponential, the
// same ascending sum and the same division and rounding.
func SoftmaxXentInto(grad []float32, q []float64, logits []float32, ld, c int, label []int32, weights []float32, inv float32, scratch []float64) {
	chunk := len(scratch) / (c + 1) &^ 3
	if c < 1 || chunk < 4 {
		panic(fmt.Sprintf("tensor: SoftmaxXentInto scratch of %d floats does not fit %d channels", len(scratch), c))
	}
	n := len(q)
	if n == 0 {
		return
	}
	// The kernels index the rows without bounds checks.
	logits, grad = logits[:(c-1)*ld+n], grad[:(c-1)*ld+n]
	for p0 := 0; p0 < n; p0 += chunk {
		np := min(chunk, n-p0)
		e, z := scratch[:c*np], scratch[c*np:(c+1)*np]
		var w []float32
		if weights != nil {
			w = weights[p0 : p0+np]
		}
		maxShiftf(e, z, logits[p0:], ld, c)
		ExpInto(e, e)
		xentGradf(grad[p0:], q[p0:p0+np], e, z, ld, label[p0:p0+np], w, inv)
	}
}

// maxShift writes e[ch*n+j] = float64(l[ch*ld+j]) - m[j] for ch < c and
// j < n = len(m), where m[j] is the maximum over channels, taken as
// `if v > m { m = v }` from channel 0 up.
func maxShift(e, m []float64, l []float32, ld, c int) {
	n := len(m)
	for j, v := range l[:n] {
		m[j] = float64(v)
	}
	for ch := 1; ch < c; ch++ {
		for j, v := range l[ch*ld : ch*ld+n] {
			if x := float64(v); x > m[j] {
				m[j] = x
			}
		}
	}
	for ch := 0; ch < c; ch++ {
		ec := e[ch*n : (ch+1)*n]
		for j, v := range l[ch*ld : ch*ld+n] {
			ec[j] = float64(v) - m[j]
		}
	}
}

// xentGrad turns exponentials e[ch*n+j] (n = len(z), c = len(e)/n) into the
// SoftmaxXentInto outputs: z[j] is overwritten with their ascending-channel
// sum, then grad[ch*ld+j] and q[j] are written from p = e/z. A subnormal
// grad value is stored as the zero of its sign (SoftmaxXentInto says why);
// ±0, ±Inf and NaN are stored as they are.
func xentGrad(grad []float32, q, e, z []float64, ld int, label []int32, weights []float32, inv float32) {
	n := len(z)
	c := len(e) / n
	clear(z)
	for ch := 0; ch < c; ch++ {
		for j, v := range e[ch*n : (ch+1)*n] {
			z[j] += v
		}
	}
	for ch := 0; ch < c; ch++ {
		ec := e[ch*n : (ch+1)*n]
		grow := grad[ch*ld : ch*ld+n]
		for j, lbl := range label[:n] {
			g := ec[j] / z[j]
			if int(lbl) == ch {
				q[j] = g
				g -= 1
			}
			wt := 1.0
			if weights != nil {
				wt = float64(weights[j])
			}
			v := float32(wt*g) * inv
			if b := math.Float32bits(v); b&0x7f800000 == 0 {
				v = math.Float32frombits(b & 0x80000000)
			}
			grow[j] = v
		}
	}
}
