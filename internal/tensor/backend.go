package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend is the compute interface behind every hot kernel in the package:
// the three GEMM forms the autodiff tape lowers matmuls onto and the fused
// im2col+GEMM convolution forward. There are exactly two: "reference", the
// scalar oracle, and "vec", the optimized one. A backend is stateless: one
// value is shared by every workspace that selects it, and kernels run
// concurrently across sessions, each on its caller's goroutine. All scratch
// therefore lives on the caller's stack, in the destination slice, or in the
// Workspace passed in — never in the backend (the bitwise-stability race
// tests in backend_race_test.go enforce this) and never on a weight tensor:
// vec's packed weight panels are a per-call lease.
//
// Parity contract: vec must agree with reference within a 1-ulp-scaled
// tolerance per output element (see backend_test.go and ARCHITECTURE.md
// "Compute backends"), and both are run-to-run deterministic for a fixed
// input: each output element is accumulated in a fixed order.
type Backend interface {
	// Name returns "reference" or "vec".
	Name() string
	// MatMulInto computes dst[m,n] (+)= a[m,k] × b[k,n] over raw row-major
	// slices. accumulate selects += vs =.
	MatMulInto(dst, a, b []float32, m, n, k int, accumulate bool)
	// MatMulATBInto computes dst[m,n] (+)= aᵀ × b with a stored [k,m]
	// (TN form; conv backward weight gradients).
	MatMulATBInto(dst, a, b []float32, m, n, k int, accumulate bool)
	// MatMulABTInto computes dst[m,n] = a[m,k] × b[n,k]ᵀ (NT form; matmul
	// backward input gradients).
	MatMulABTInto(dst, a, b []float32, m, n, k int)
	// Conv2DWS runs the fused im2col+GEMM convolution forward: weights w
	// [OC,C,KH,KW], optional bias b (len OC or nil), CHW input x, result
	// [OC,OH,OW] leased from ws. Shapes are pre-validated by the package
	// wrapper Conv2DWS; implementations may assume they are consistent.
	Conv2DWS(ws *Workspace, x, w, b *Tensor, s ConvSpec) *Tensor
}

// defBackend is the process default, behind a pointer so tests can swap it
// while other goroutines dispatch kernels.
var defBackend atomic.Pointer[Backend]

// BackendByName resolves a backend. The empty string resolves to the
// process default, so config fields can leave backend selection unset.
func BackendByName(name string) (Backend, error) {
	switch name {
	case "":
		return DefaultBackend(), nil
	case "reference":
		return refBackend{}, nil
	case "vec":
		return vecBackend{}, nil
	}
	return nil, fmt.Errorf("tensor: unknown backend %q (have %v)", name, Backends())
}

// Backends returns the sorted names of the backends.
func Backends() []string { return []string{"reference", "vec"} }

// DefaultBackend returns the process-wide default used by nil/unset
// workspaces and the package-level MatMul* helpers.
func DefaultBackend() Backend { return *defBackend.Load() }

// SetDefaultBackend swaps the process default and returns the previous one,
// for tests that re-run suites under each backend:
//
//	defer tensor.SetDefaultBackend(tensor.SetDefaultBackend(b))
func SetDefaultBackend(b Backend) Backend {
	if b == nil {
		panic("tensor: SetDefaultBackend(nil)")
	}
	return *defBackend.Swap(&b)
}

// The vec backend is the default: it is deterministic, parity-checked
// against reference on every CI run, and several times faster on the
// distill step (the backend/speedup scenario gates the ratio).
// SHADOWTUTOR_BACKEND overrides the default for the whole process (the env
// hook the test matrix uses); an unknown name panics at init so CI fails
// loudly instead of silently testing the wrong backend.
func init() {
	var b Backend = vecBackend{}
	if name := os.Getenv("SHADOWTUTOR_BACKEND"); name != "" {
		var err error
		if b, err = BackendByName(name); err != nil {
			panic(fmt.Sprintf("tensor: SHADOWTUTOR_BACKEND: %v", err))
		}
	}
	defBackend.Store(&b)
}
