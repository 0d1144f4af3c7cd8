//go:build race

package experiments

// raceEnabled mirrors race_off_test.go for race-detector builds.
const raceEnabled = true
