//go:build race

package matching_test

// raceEnabled reports a race-detector build, where sync.Pool drops a
// share of Puts on purpose and allocation counts stop being exact.
const raceEnabled = true
