//go:build !race

package experiments

// raceEnabled reports whether the race detector is active. Under it the
// default pre-training recipe takes ten times as long, so
// TestEmbeddedPretrainedCheckpoint leaves its training comparison to the
// normal build.
const raceEnabled = false
