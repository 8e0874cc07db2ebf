//go:build race

package exp

// raceEnabled reports a race-detector build, where a simulated cycle
// costs ~20x.
const raceEnabled = true
