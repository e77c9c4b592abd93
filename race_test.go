//go:build race

package modelardb

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so allocation counts are not comparable.
const raceEnabled = true
