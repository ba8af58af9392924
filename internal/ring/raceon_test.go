//go:build race

package ring

// raceEnabled reports a race-detector build. Under it sync.Pool drops a
// random quarter of its Puts, so exact segment-reuse counts only hold
// without it.
const raceEnabled = true
