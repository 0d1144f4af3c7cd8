package tensor

// Backend is the compute interface behind the convolutions, which are every
// GEMM the student runs (§4.1.3): the forward and the backward, each GEMMs
// over the im2col matrix. vec is the one compute path: the package-level
// helpers, the dense matrix products (ops.go), nil workspaces and
// unconfigured workspaces all run on it. Reference, the scalar oracle, is
// reached only by pinning it on a workspace (Workspace.SetBackend) or a
// student, which is how the parity and gradient tests run it. A backend is
// stateless: one value is shared by every workspace that selects it, and
// kernels run concurrently across sessions, each on its caller's goroutine.
// All scratch therefore lives on the caller's stack, in the destination
// slice, or in the Workspace passed in — never in the backend (the
// bitwise-stability race tests in backend_race_test.go enforce this) and
// never on a weight tensor: vec's packed weight panels are a per-call lease.
//
// Parity contract: vec must agree with reference within a 1-ulp-scaled
// tolerance per output element (see backend_test.go and ARCHITECTURE.md
// "Compute backends"), and both are run-to-run deterministic for a fixed
// input: each output element is accumulated in a fixed order.
type Backend interface {
	// Name returns "reference" or "vec".
	Name() string
	// Conv2DWS runs the convolution forward as one GEMM over the im2col
	// matrix (reference lowers it a row at a time; vec reads it in place
	// through a row-offset table): weights w [OC,C,KH,KW], optional bias b
	// (len OC or nil), CHW input x, result [OC,OH,OW] leased from ws.
	// Shapes are pre-validated by the package wrapper Conv2DWS;
	// implementations may assume they are consistent.
	Conv2DWS(ws *Workspace, x, w, b *Tensor, s ConvSpec) *Tensor
	// Conv2DBackwardWS computes a Conv2DWS call's gradients from the output
	// gradient gy [OC,OH,OW]: dx (nil unless needInput), dw and db, leased
	// from ws (the package wrapper Conv2DBackwardWS documents them).
	Conv2DBackwardWS(ws *Workspace, x, w, gy *Tensor, s ConvSpec, needInput bool) (dx, dw, db *Tensor)
}

// Reference is the scalar parity oracle every vec kernel is diffed against.
// Nothing in the system selects it; tests pin it through
// Workspace.SetBackend or nn.Student.SetBackend.
var Reference Backend = refBackend{}
