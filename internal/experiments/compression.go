package experiments

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/nn"
	"repro/internal/stats"
)

// CodecRow is one diff codec's cost on the real partial-distillation diff.
type CodecRow struct {
	Codec       string
	Bytes       int
	VsRaw       float64 // raw bytes / Bytes
	MaxAbsError float64
}

// CodecRows renders as the diff-compression ablation table.
type CodecRows []CodecRow

func (rows CodecRows) Table() *stats.Table {
	t := stats.NewTable("Ablation: student-diff compression (§8 future work)",
		"Codec", "Bytes", "vs raw", "Max abs error")
	for _, r := range rows {
		t.AddRow(r.Codec,
			fmt.Sprintf("%d", r.Bytes),
			fmt.Sprintf("%.2fx", r.VsRaw),
			fmt.Sprintf("%.4g", r.MaxAbsError))
	}
	return t
}

// AblationCompression evaluates the §8 future-work codecs on the real
// partial-distillation diff of this repo's student: bytes on the wire,
// compression ratio against float32, and worst-case reconstruction error.
// (The paper ships raw float32; quantization/pruning are its named
// extensions.) The same codecs also run live on the wire in the
// bandwidth-sweep codec scenarios (as "static:<codec>" link policies).
func AblationCompression() (CodecRows, error) {
	st, err := SharedPretrained()
	if err != nil {
		return nil, err
	}
	st.SetPartial(true)
	// The codecs only ever see a diff's weights: compress.Delta sends its
	// BatchNorm statistics bit-exact whatever the codec.
	diff, _ := nn.SplitBNStats(nn.TrainableSubset(st.Params))

	codecs := []compress.Codec{
		compress.Raw{},
		compress.Int8{},
		compress.Pruned{KeepFraction: 0.25},
		compress.Pruned{KeepFraction: 0.10},
	}
	rawBytes, err := compress.EncodedBytes(compress.Raw{}, diff)
	if err != nil {
		return nil, err
	}
	var rows CodecRows
	for _, c := range codecs {
		n, err := compress.EncodedBytes(c, diff)
		if err != nil {
			return nil, err
		}
		e, err := compress.MaxAbsError(c, diff)
		if err != nil {
			return nil, err
		}
		rows = append(rows, CodecRow{c.Name(), n, float64(rawBytes) / float64(n), e})
	}
	return rows, nil
}
