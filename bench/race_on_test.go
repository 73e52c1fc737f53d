//go:build race

package main

// raceEnabled reports that the race detector is instrumenting this build.
// Its 5-10x slowdown leaves the system unable to keep up with the fixed
// rates, so the smokes then only require a clean run, not zero failures.
const raceEnabled = true
