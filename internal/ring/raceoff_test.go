//go:build !race

package ring

// raceEnabled reports a race-detector build; see raceon_test.go.
const raceEnabled = false
