//go:build race

package sched

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
