//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in. The detector
// allocates, so the allocation tests skip under it.
const raceEnabled = false
