//go:build !race

package modelardb

const raceEnabled = false
