//go:build !race

package delta

const raceEnabled = false
