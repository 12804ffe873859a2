//go:build !race

package exp

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
