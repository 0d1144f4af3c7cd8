package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/teacher"
	"repro/internal/tensor"
	"repro/internal/video"
)

var update = flag.Bool("update", false, "rewrite pretrained.bin from Pretrain(DefaultPretrain()) (avx2+fma kernels only)")

// pretrainedHash is nn.HashParams of Pretrain(DefaultPretrain()) on the
// avx2+fma kernels: the base every host decodes from pretrained.bin.
const pretrainedHash = 0x29041b5f5c9e8a90

const regenerate = "go test ./internal/experiments -run '^TestEmbeddedPretrainedCheckpoint$' -update, then set pretrainedHash to the hash it logs"

// TestEmbeddedPretrainedCheckpoint pins the embedded checkpoint: on every
// ISA it decodes to pretrainedHash, and on avx2+fma — the kernels it was
// generated on — training the default recipe still reproduces it, so a
// change to training numerics cannot leave a stale file behind.
func TestEmbeddedPretrainedCheckpoint(t *testing.T) {
	isa := tensor.VecKernelISA()
	if *update {
		if isa != "avx2+fma" {
			t.Fatalf("-update on %s kernels: pretrained.bin is generated on avx2+fma", isa)
		}
		st, err := Pretrain(DefaultPretrain())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nn.WriteNamed(&buf, st.Params.All()); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("pretrained.bin", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote pretrained.bin (%d bytes, hash %#x); set pretrainedHash to it", buf.Len(), nn.HashParams(st.Params.All()))
		return
	}

	st, err := loadPretrained()
	if err != nil {
		t.Fatalf("%v; regenerate with: %s", err, regenerate)
	}
	if got := nn.HashParams(st.Params.All()); got != pretrainedHash {
		t.Fatalf("embedded checkpoint hashes %#x, want %#x; regenerate with: %s", got, pretrainedHash, regenerate)
	}
	if isa != "avx2+fma" || raceEnabled {
		t.Logf("training comparison skipped on %s kernels (race detector: %v)", isa, raceEnabled)
		return
	}
	trained, err := Pretrain(DefaultPretrain())
	if err != nil {
		t.Fatal(err)
	}
	if got := nn.HashParams(trained.Params.All()); got != pretrainedHash {
		t.Fatalf("Pretrain(DefaultPretrain()) hashes %#x, the embedded checkpoint %#x: training numerics changed; regenerate with: %s",
			got, pretrainedHash, regenerate)
	}
}

// partialDistillHash is nn.HashParams of the student after
// TestPartialDistillationBitsPinned's 40 key frames on the avx2+fma kernels.
const partialDistillHash = 0x30f738dd21d34bad

// TestPartialDistillationBitsPinned pins run-time partial distillation: the
// embedded student under core.DefaultConfig, trained on 40 key frames of the
// drone stream (one every 9th frame) against oracle labels. That run feeds
// the loss logits whose gaps push exponentials outside the fast range, so a
// kernel that changes any bit of the loss, the backward or the update fails
// here before it can move a benchmark.
func TestPartialDistillationBitsPinned(t *testing.T) {
	if isa := tensor.VecKernelISA(); isa != "avx2+fma" || raceEnabled {
		t.Skipf("pinned on avx2+fma kernels without the race detector (have %s, race %v)", isa, raceEnabled)
	}
	st, err := SharedPretrained()
	if err != nil {
		t.Fatal(err)
	}
	d := core.NewDistiller(core.DefaultConfig(), st)
	vcfg, err := video.NamedVideo("drone", 11)
	if err != nil {
		t.Fatal(err)
	}
	g, err := video.NewGenerator(vcfg)
	if err != nil {
		t.Fatal(err)
	}
	tch := teacher.NewOracle(12)
	for i := 0; i < 40; i++ {
		frame := g.Next()
		d.Train(frame, tch.Infer(frame))
		g.Skip(8)
	}
	if got := nn.HashParams(st.Params.All()); got != partialDistillHash {
		t.Fatalf("partial distillation hashes %#x, want %#x: training numerics changed", got, partialDistillHash)
	}
}

func TestPretrainConfigParsesStepsStrictly(t *testing.T) {
	for _, tc := range []struct {
		in    string
		steps int // 0: an error
	}{
		{"", DefaultPretrain().Steps},
		{"120", 120},
		{"12O", 0},
		{"1e3", 0},
		{"abc", 0},
		{"0", 0},
		{"-5", 0},
	} {
		cfg, err := pretrainConfig(tc.in)
		switch {
		case tc.steps == 0 && err == nil:
			t.Errorf("%q: got %d steps, want an error", tc.in, cfg.Steps)
		case tc.steps != 0 && err != nil:
			t.Errorf("%q: %v", tc.in, err)
		case tc.steps != 0 && cfg.Steps != tc.steps:
			t.Errorf("%q: got %d steps, want %d", tc.in, cfg.Steps, tc.steps)
		}
	}
	if cfg, _ := pretrainConfig(""); cfg != DefaultPretrain() {
		t.Errorf(`"" resolves to %+v, want DefaultPretrain() (the embedded checkpoint)`, cfg)
	}
}
