package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// Backends must be stateless: one Backend value is shared by every session
// in the process, so any scratch hidden in the backend (or in the selected
// microkernels) would be a data race and would corrupt results under
// concurrency. This test computes a single-goroutine golden for each kernel
// — the backend's convolution and the dense products, which lease their
// scratch from SharedPool — then runs 8 goroutines hammering them into
// private output buffers, and requires every concurrent result to be
// bitwise identical to the golden. Run under -race it also catches
// benign-looking shared writes.
func TestBackendConcurrentBitwiseStable(t *testing.T) {
	const goroutines = 8
	const rounds = 6
	for _, bk := range everyBackend {
		name := bk.Name()
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7001))
			const m, n, k = 17, 33, 65
			a, b := New(m, k), New(k, n)
			fillRand(rng, a.Data)
			fillRand(rng, b.Data)
			bt := FromSlice(transpose(b.Data, k, n), n, k)
			x := New(3, 16, 16)
			w := New(8, 3, 3, 3)
			bias := New(8)
			fillRand(rng, x.Data)
			fillRand(rng, w.Data)
			fillRand(rng, bias.Data)
			spec := Spec(3, 3)

			goldNN, goldNT := New(m, n), New(m, n)
			MatMulInto(goldNN, a, b, false)
			MatMulABTInto(goldNT, a, bt)
			goldConv := Conv2DWS(NewWorkspace().SetBackend(bk), x, w, bias, spec)

			var wg sync.WaitGroup
			errs := make(chan string, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ws := NewWorkspace().SetBackend(bk) // workspaces are per-session, never shared
					for r := 0; r < rounds; r++ {
						dst := New(m, n)
						MatMulInto(dst, a, b, false)
						if !bitwiseEqual(dst.Data, goldNN.Data) {
							errs <- "MatMulInto diverged across goroutines"
							return
						}
						MatMulABTInto(dst, a, bt)
						if !bitwiseEqual(dst.Data, goldNT.Data) {
							errs <- "MatMulABTInto diverged across goroutines"
							return
						}
						conv := Conv2DWS(ws, x, w, bias, spec)
						if !bitwiseEqual(conv.Data, goldConv.Data) {
							errs <- "Conv2DWS diverged across goroutines"
							return
						}
						ws.Put(conv)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for msg := range errs {
				t.Fatalf("%s: %s — backend holds shared mutable scratch", name, msg)
			}
		})
	}
}

func transpose(b []float32, rows, cols int) []float32 {
	out := make([]float32, len(b))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			out[c*rows+r] = b[r*cols+c]
		}
	}
	return out
}

func bitwiseEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
