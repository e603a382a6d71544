//go:build !race

package matching_test

const raceEnabled = false
